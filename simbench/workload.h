/// \file
/// The benchmark's workloads: three paper points built through the public
/// API exactly as exp::run_forwarding / exp::run_ips build them, plus the
/// outside-in probes (generator, host rx handler, accelerator wrapper) and
/// the correctness checks.

#ifndef SIMBENCH_WORKLOAD_H
#define SIMBENCH_WORKLOAD_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/system.h"
#include "net/rules.h"
#include "trace.h"

namespace simbench {

enum class Workload { kFwd64, kFwd1500, kIps1k };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// The paper point a workload reproduces.
struct Spec {
    bool ips = false;  ///< Fig 8 IPS (pigasus, HW reorder) vs Fig 7a forwarder
    uint32_t size = 0;
    unsigned rpu_count = 0;
    rosebud::sim::Cycle warmup = 0;  ///< the exp harness's simulated warm-up
    rosebud::sim::Cycle window = 0;  ///< the exp harness's measurement window
};

Spec spec_of(Workload w);

/// What the benchmark's own callbacks observe.
struct Probes {
    uint64_t offered = 0;  ///< frames returned by the traffic generators
    uint64_t host_frames = 0;
    uint64_t host_bytes = 0;
    bool track_attacks = false;  ///< record attack keys while set
    int64_t gen_delay_ns = 0;    ///< busy-wait per generator call (self-test)
    std::vector<uint64_t> attacks_offered;
    std::unordered_set<uint64_t> attacks_at_host;
};

/// One built paper point, positioned at its first traffic cycle.
struct Instance {
    Workload workload = Workload::kFwd64;
    Spec spec;
    std::unique_ptr<Probes> probes;                   ///< outlives sys
    std::unique_ptr<rosebud::net::IdsRuleSet> rules;  ///< outlives sys
    std::unique_ptr<rosebud::System> sys;
    int64_t setup_ns = 0;  ///< first library call .. first traffic cycle
};

/// Build workload `w` at `seed`. Seed 0 reproduces the exp harness
/// defaults (forwarding flows port+1, IPS seed 42). With a trace, the set-up
/// phases become spans and the generator, accelerators and host rx handler
/// are timed into the trace's "traffic", "accel" and "host.rx" tallies.
Instance build(Workload w, uint64_t seed, Trace* trace);

/// Counters read through public accessors at one instant.
struct Snapshot {
    rosebud::sim::Cycle cycle = 0;
    uint64_t instret = 0;
    uint64_t fast_forwarded = 0;
    uint64_t sink_frames = 0;
    uint64_t sink_bytes = 0;
    uint64_t offered = 0;
    uint64_t host_frames = 0;
    uint64_t host_bytes = 0;
    std::map<std::string, uint64_t> counters;

    /// Sum of every counter named `prefix<digits>.<suffix>` (`prefix` alone
    /// when `suffix` is empty).
    uint64_t sum(const std::string& prefix, const std::string& suffix = "") const;
};

Snapshot snapshot(Instance& inst);

/// Traffic delivered to the sinks and the host over [from, to], by the
/// exp harness's formulas.
struct Delivery {
    double cycles = 0;
    double frames = 0;
    double gbps = 0;
    double mpps = 0;
};

Delivery delivery(const Snapshot& from, const Snapshot& to);

/// One correctness check; `detail` says what was measured.
struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/// Checks over [from, to] that every paper point must meet: no core
/// faulted, and the workload's expected delivery (fwd64: 1.000 packet per
/// cycle; fwd1500: line-rate goodput; ips1k: >= 195 Gbps goodput).
std::vector<Check> check_window(Instance& inst, const Snapshot& from, const Snapshot& to);

/// ips1k only: runs the instance `drain` more cycles, then checks that
/// every attack offered while probes->track_attacks was set reached the host.
Check check_attacks_delivered(Instance& inst, rosebud::sim::Cycle drain);

/// oracle::run_differential at `seed` with the workload's pipeline, RPU
/// count, LB policy and reassembler setting.
Check check_oracle(Workload w, uint64_t seed);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOAD_H
