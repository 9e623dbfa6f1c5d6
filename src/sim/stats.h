/// \file
/// Lightweight statistics registry.
///
/// Models the host-readable status counters of Section 4.3 ("number of
/// transferred bytes, frames, drops, or stalled cycles") and doubles as the
/// bench harness's measurement substrate. Counters are plain uint64 cells
/// addressed by hierarchical dotted names; Samplers accumulate value
/// distributions (min/max/mean/percentiles) for latency measurements.

#ifndef ROSEBUD_SIM_STATS_H
#define ROSEBUD_SIM_STATS_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rosebud::sim {

/// A monotonically increasing event/byte counter.
class Counter {
 public:
    void add(uint64_t n = 1) { value_ += n; }
    uint64_t get() const { return value_; }
    void reset() { value_ = 0; }

 private:
    uint64_t value_ = 0;
};

/// Accumulates a distribution of samples (e.g. per-packet latency in ns).
///
/// Unbounded by default (every sample is retained). For million-packet
/// runs call set_reservoir(cap): retention switches to Vitter's algorithm R
/// with a deterministic PRNG, so memory is bounded at `cap` samples while
/// min/max/mean stay exact (they are tracked over *all* samples) and
/// percentiles become reservoir estimates. Note the retained subset depends
/// on sample arrival order, so reservoir mode is not suitable for runs that
/// must produce tick-order-independent state fingerprints; the default
/// (retain everything) remains order-independent.
class Sampler {
 public:
    void add(double v);

    /// Retained sample count (== seen() unless a reservoir cap is active).
    size_t count() const { return samples_.size(); }
    /// Total samples ever added (survives reservoir eviction, not reset()).
    uint64_t seen() const { return seen_; }
    bool empty() const { return samples_.empty(); }

    double min() const;
    double max() const;
    double mean() const;

    /// p is clamped to [0,1] (NaN maps to 0); e.g. 0.5 for median.
    double percentile(double p) const;

    /// Bound retention to `cap` samples via reservoir sampling (0 restores
    /// unbounded retention). Samples already held beyond `cap` are truncated.
    void set_reservoir(size_t cap);
    size_t reservoir() const { return reservoir_cap_; }

    void reset();

    const std::vector<double>& samples() const { return samples_; }

 private:
    std::vector<double> samples_;
    size_t reservoir_cap_ = 0;  ///< 0 = retain everything
    uint64_t seen_ = 0;
    uint64_t rng_state_ = 0x243f6a8885a308d3ull;  ///< deterministic reservoir PRNG
    double exact_min_ = 0, exact_max_ = 0, sum_ = 0;  ///< over all seen samples
};

/// Named registry of counters and samplers. One per simulated system.
///
/// `counter()`/`sampler()` return node-stable references: components cache
/// the returned handle at elaboration time and bump it directly on the hot
/// path (no per-event string building or map walk). Cold-path lookups
/// (e.g. an accelerator resolving a counter on its first event) are
/// allowed too.
class Stats {
 public:
    /// Find-or-create a counter by dotted name.
    Counter& counter(const std::string& name) { return counters_[name]; }

    /// Find-or-create a sampler by dotted name.
    Sampler& sampler(const std::string& name) { return samplers_[name]; }

    /// Committed counter value, 0 if the counter does not exist.
    uint64_t get(const std::string& name) const;

    /// Reset every counter and sampler (e.g. after warm-up).
    void reset_all();

    /// Dump all counters to a human-readable multi-line string.
    std::string to_string() const;

    /// Dump counters and sampler summaries as CSV ("name,kind,value,...")
    /// for spreadsheet/plotting pipelines.
    std::string to_csv() const;

    const std::map<std::string, Counter>& counters() const { return counters_; }
    const std::map<std::string, Sampler>& samplers() const { return samplers_; }

 private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Sampler> samplers_;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_STATS_H
