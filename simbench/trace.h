/// \file
/// In-memory host-time spans for the benchmark's traced runs.
///
/// A span is a named interval with a parent and a run id (the benchmark's
/// seed, so spans from several runs can be told apart once merged). Spans are kept in memory and written out
/// once at exit. Boundaries crossed millions of times per run (traffic
/// generator calls, accelerator ticks, host rx callbacks) do not get one
/// span per call: each is a Tally (calls + sampled ns), and what a tally
/// accrued while a span was the innermost open one is attached to that
/// span when it closes. A span's self time is its duration minus its
/// children's durations minus its own tallies.

#ifndef SIMBENCH_TRACE_H
#define SIMBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace simbench {

inline int64_t
now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Calls at one high-frequency boundary and the host time of a sample of
/// them. Timing every call would cost two clock reads per call, which on
/// the accelerator boundary (8 ticks per cycle on ips1k) inflates both the
/// run and the layer being measured; so a deterministic pseudo-random 1 in
/// ~kSampleEvery calls is timed (random gaps, so periodic work such as a
/// 64-cycle scan cannot alias with the sample) and ns() scales the sample.
struct Tally {
    static constexpr uint64_t kSampleEvery = 16;

    uint64_t calls = 0;
    uint64_t timed = 0;  ///< calls that were timed
    int64_t timed_ns = 0;

    /// Estimated host ns of all `calls`.
    double ns() const { return timed ? double(timed_ns) * double(calls) / double(timed) : 0.0; }

    Tally& operator-=(const Tally& o) {
        calls -= o.calls;
        timed -= o.timed;
        timed_ns -= o.timed_ns;
        return *this;
    }

    /// True when the call being counted should be timed.
    bool count_call() {
        ++calls;
        if (skip_ != 0) {
            --skip_;
            return false;
        }
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        skip_ = (lcg_ >> 33) % (2 * kSampleEvery - 1);
        return true;
    }

 private:
    uint64_t lcg_ = 1;
    uint64_t skip_ = 0;
};

/// Counts one call into a tally and times it when sampled (a null tally
/// makes it free of clock reads).
class TallyScope {
 public:
    explicit TallyScope(Tally* t) : t_(t && t->count_call() ? t : nullptr), t0_(t_ ? now_ns() : 0) {}
    ~TallyScope() {
        if (!t_) return;
        t_->timed_ns += now_ns() - t0_;
        ++t_->timed;
    }
    TallyScope(const TallyScope&) = delete;
    TallyScope& operator=(const TallyScope&) = delete;

 private:
    Tally* t_;
    int64_t t0_;
};

class Trace {
 public:
    /// Every span carries `run` as its run id.
    explicit Trace(uint64_t run) : run_(run) {}

    struct Span {
        std::string name;
        uint64_t run = 0;
        int parent = -1;  ///< index into spans(), -1 = root
        int64_t start_ns = 0;
        int64_t end_ns = -1;  ///< -1 while open
        /// Calls made while this span was the innermost open one.
        std::map<std::string, Tally> tallies;
    };

    /// The boundary accumulator named `name`; the pointer stays valid for
    /// the Trace's lifetime.
    Tally* boundary(const std::string& name);

    /// Open a span as a child of the innermost open span.
    int open(const std::string& name);

    /// Close span `id`, which must be the innermost open span.
    void close(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /// Empty when every span is closed, lies inside its parent, does not
    /// overlap its siblings, and has non-negative measured self time (its
    /// duration minus its children and its timed samples); otherwise the
    /// first violation.
    std::string validate() const;

    /// All spans as one JSON document.
    std::string to_json() const;

 private:
    /// Estimated self time of span `id` in ns (tally ns are estimates).
    double self_ns(int id) const;

    std::map<std::string, std::unique_ptr<Tally>> boundaries_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<std::map<std::string, Tally>> open_snapshots_;
    std::vector<std::vector<int>> children_;
    uint64_t run_;
};

/// RAII span; a null trace records nothing.
class SpanScope {
 public:
    SpanScope(Trace* t, const std::string& name) : t_(t), id_(t ? t->open(name) : -1) {}
    ~SpanScope() {
        if (t_) t_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

 private:
    Trace* t_;
    int id_;
};

}  // namespace simbench

#endif  // SIMBENCH_TRACE_H
