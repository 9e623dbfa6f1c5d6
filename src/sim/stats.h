/// \file
/// Lightweight statistics registry.
///
/// Models the host-readable status counters of Section 4.3 ("number of
/// transferred bytes, frames, drops, or stalled cycles") and doubles as the
/// bench harness's measurement substrate. Counters are plain uint64 cells
/// addressed by hierarchical dotted names; Histograms hold value
/// distributions (latency measurements) in fixed storage.

#ifndef ROSEBUD_SIM_STATS_H
#define ROSEBUD_SIM_STATS_H

#include <cstdint>
#include <map>
#include <string>

namespace rosebud::sim {

/// A monotonically increasing event/byte counter: it only counts up.
class Counter {
 public:
    void add(uint64_t n = 1) { value_ += n; }
    uint64_t get() const { return value_; }

 private:
    uint64_t value_ = 0;
};

/// Log-bucketed value distribution with fixed, allocation-free recording
/// (the classic HDR scheme). Count, sum, min and max are exact; values
/// below 2^kSubBits land in exact unit buckets, and above that each
/// power-of-two octave splits into 2^kSubBits sub-buckets, so a bucket's
/// relative width is at most 2^-kSubBits (12.5%). Percentiles report the
/// *upper bound* of the bucket holding the target rank, so a reported p99
/// never understates the true p99. The contents do not depend on the
/// order of recording.
class Histogram {
 public:
    static constexpr unsigned kSubBits = 3;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;
    static constexpr unsigned kOctaves = 64 - kSubBits + 1;
    static constexpr unsigned kBuckets = kOctaves << kSubBits;

    /// Record `n` occurrences of value `v`. Never allocates.
    void record(uint64_t v, uint64_t n = 1) {
        buckets_[bucket_index(v)] += n;
        count_ += n;
        sum_ += v * n;
        if (count_ == n || v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

    /// Upper bound of the bucket holding the p-quantile (p clamped to
    /// [0,1], NaN to 0); 0 on an empty histogram.
    uint64_t percentile(double p) const;

    /// Zero every bucket and the summary stats.
    void clear();

    /// Add another histogram's buckets into this one.
    void merge(const Histogram& o);

    /// Visit every non-empty bucket in value order as (upper_bound, count).
    template <typename Fn>
    void for_each_nonzero(Fn&& fn) const {
        for (unsigned i = 0; i < kBuckets; ++i)
            if (buckets_[i]) fn(bucket_upper(i), buckets_[i]);
    }

    /// Index of the bucket containing `v`.
    static unsigned bucket_index(uint64_t v) {
        if (v < kSubBuckets) return unsigned(v);
        unsigned msb = 63u - unsigned(__builtin_clzll(v));
        unsigned sub = unsigned(v >> (msb - kSubBits)) & (kSubBuckets - 1);
        return ((msb - kSubBits + 1) << kSubBits) | sub;
    }

    /// Largest value mapping to bucket `i`.
    static uint64_t bucket_upper(unsigned i) {
        uint64_t octave = i >> kSubBits;
        uint64_t sub = i & (kSubBuckets - 1);
        if (octave == 0) return sub;
        return ((kSubBuckets + sub + 1) << (octave - 1)) - 1;
    }

 private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

/// Named registry of counters. One per simulated system.
///
/// `counter()` returns node-stable references: components cache
/// the returned handle at elaboration time and bump it directly on the hot
/// path (no per-event string building or map walk). Cold-path lookups
/// (e.g. an accelerator resolving a counter on its first event) are
/// allowed too.
class Stats {
 public:
    /// Find-or-create a counter by dotted name.
    Counter& counter(const std::string& name) { return counters_[name]; }

    /// Committed counter value, 0 if the counter does not exist.
    uint64_t get(const std::string& name) const;

    const std::map<std::string, Counter>& counters() const { return counters_; }

 private:
    std::map<std::string, Counter> counters_;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_STATS_H
