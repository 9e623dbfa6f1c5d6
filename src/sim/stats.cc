#include "sim/stats.h"

#include <cmath>

namespace rosebud::sim {

uint64_t
Histogram::percentile(double p) const {
    if (count_ == 0) return 0;
    if (!(p > 0.0)) p = 0.0;  // negative and NaN clamp to the minimum
    if (p > 1.0) p = 1.0;
    uint64_t target = uint64_t(std::ceil(p * double(count_)));
    if (target == 0) target = 1;
    uint64_t cum = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        cum += buckets_[i];
        if (cum >= target) return bucket_upper(i);
    }
    return max_;
}

void
Histogram::clear() {
    for (uint64_t& b : buckets_) b = 0;
    count_ = sum_ = min_ = max_ = 0;
}

void
Histogram::merge(const Histogram& o) {
    if (o.count_ == 0) return;
    for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
}

uint64_t
Stats::get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.get();
}

}  // namespace rosebud::sim
