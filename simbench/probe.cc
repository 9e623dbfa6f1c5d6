// Memory-bound host probe, logged beside each steadiness run as a
// diagnostic: a dependent random walk over a 48 MB ring plus malloc/free
// churn. When co-tenants contend for memory bandwidth it slows with the
// simulator, so a slow run with a slow probe reads as contention rather
// than a regression. No benchmark metric is ever divided by it.
//
// Prints one line: "probe_ns_per_step <value> end <slot>".

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "trace.h"

int
main() {
    constexpr size_t kSlots = 48u << 20 >> 3;  // 48 MB of uint64_t
    constexpr size_t kSteps = 4u << 20;
    std::vector<uint64_t> next(kSlots);
    std::iota(next.begin(), next.end(), 0);
    // Sattolo's algorithm: one cycle through every slot.
    std::mt19937_64 rng(1);
    for (size_t i = kSlots - 1; i > 0; --i) std::swap(next[i], next[rng() % i]);

    std::vector<std::unique_ptr<char[]>> churn(256);
    int64_t t0 = simbench::now_ns();
    uint64_t at = 0;
    for (size_t s = 0; s < kSteps; ++s) {
        at = next[at];
        if ((s & 63) == 0) churn[at & 255] = std::make_unique<char[]>(64 + (at & 4095));
    }
    int64_t ns = simbench::now_ns() - t0;
    // Printing the walk's end slot keeps the walk from being optimized away.
    std::printf("probe_ns_per_step %.4f end %llu\n", double(ns) / double(kSteps),
                (unsigned long long)at);
    return 0;
}
