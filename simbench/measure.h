/// \file
/// Timed windows, passes, concurrent replicas and the mcycles_per_s
/// estimator. The benchmark and its self-test share them, so the
/// self-test's negative controls measure the very metric the benchmark
/// reports.

#ifndef SIMBENCH_MEASURE_H
#define SIMBENCH_MEASURE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "workload.h"

namespace simbench {

/// Simulated cycles per timed slice.
constexpr rosebud::sim::Cycle kSliceCycles = 10'000;

/// The timed window: 100 slices, after a discarded warm-up.
constexpr size_t kWindowSlices = 100;
constexpr rosebud::sim::Cycle kWindowCycles = kWindowSlices * kSliceCycles;

/// Runs the exp harness's warm-up plus enough cycles for the host's caches
/// and allocator to reach steady state. Its time is discarded.
void warm_up(Instance& inst, Trace* trace);

struct Window {
    std::vector<int64_t> slice_ns;  ///< host ns of each slice
    double awake_share = 0;         ///< mean awake/total components at slice ends
};

/// Runs kWindowCycles slice by slice. When `before_slice` is set it is
/// called, untimed, ahead of slice k with k. With a trace, every slice is
/// a "run_cycles" span.
Window run_window(Instance& inst, Trace* trace,
                  const std::function<void(size_t)>& before_slice = {});

/// One timed pass over the window.
struct Pass {
    std::vector<int64_t> slice_ns;  ///< host ns of each slice
    uint64_t fingerprint = 0;       ///< state at the end of the window
};

/// What one replica measured.
struct Replica {
    std::vector<Pass> passes;    ///< every one the same seed and cycles
    std::vector<double> setups;  ///< seconds of each cold set-up
    /// Peak RSS at the end of the first pass's window, when the process has
    /// built one System, as a one-point run does. Freeing and rebuilding
    /// the System in later passes raised the peak of some ips1k seeds by
    /// up to 2 MB.
    double rss_mb = 0;
};

/// Times `passes` passes of the same window in this process. Each pass
/// destroys the previous System, builds `w` at `seed` afresh, warms up
/// and runs the window, calling `before_slice` as run_window does. Only
/// the first build is the process's first, so only its set-up time and
/// peak RSS are recorded. `inst` is left at the end of the last window.
Replica run_passes(Workload w, uint64_t seed, int passes, Instance& inst,
                   const std::function<void(size_t)>& before_slice = {});

struct Replicas {
    std::vector<Replica> done;  ///< this process's replica first
    unsigned lost = 0;          ///< children that failed or sent no result
};

/// Runs `body` at the same time in this process and in forked children:
/// one replica per available CPU, at most 4.
Replicas run_replicas(const std::function<Replica()>& body);

/// Simulated Mcycles per host second over the window. Every pass of every
/// replica simulates the same cycles, so slice k is the same work in all
/// of them. Co-tenants only ever slow a slice down, so each slice is
/// charged its fastest time: window cycles / sum over k of the minimum
/// over replicas and passes of t[k]. Every slice's work counts, however
/// rare or heavy it is.
double mcycles_per_s(const std::vector<Replica>& replicas);

/// Mcycles/s of every slice of every pass and replica, pooled (for
/// diagnostics).
std::vector<double> slice_rates(const std::vector<Replica>& replicas);

/// `q`-quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q);

}  // namespace simbench

#endif  // SIMBENCH_MEASURE_H
