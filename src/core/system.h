/// \file
/// The top-level Rosebud system (paper Figure 2): N RPUs in four clusters,
/// the customizable load balancer, the two-plane packet-distribution
/// fabric, the inter-RPU broadcast network, the host control plane, and
/// the traffic endpoints standing in for the tester FPGA.
///
/// This is the primary public entry point of the library:
///
///   rosebud::SystemConfig cfg;
///   cfg.rpu_count = 16;
///   rosebud::System sys(cfg);
///   sys.host().load_firmware_all(fwlib::forwarder().image);
///   sys.host().boot_all();
///   sys.add_source({.port = 0}, gen);
///   sys.run_cycles(100'000);

#ifndef ROSEBUD_CORE_SYSTEM_H
#define ROSEBUD_CORE_SYSTEM_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/fabric.h"
#include "dist/traffic.h"
#include "host/host.h"
#include "lb/load_balancer.h"
#include "lint/netlist.h"
#include "msg/broadcast.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud {

/// Policy for the elaboration-time netlist lint that runs before cycle 0.
enum class LintMode {
    kEnforce,  ///< violations are fatal before the first tick (default)
    kWarn,     ///< violations are logged, simulation proceeds
    kOff,      ///< no automatic lint (explicit lint_check() still works)
};

/// Host-speed knobs. They change only host time, never simulated results:
/// predecoded dispatch and idle skipping are exact (tests/test_sim_kernel.cc
/// and tests/test_rv_core.cc prove both).
struct SimTuning {
    bool predecode = true;  ///< rv::Core decoded-instruction cache
    bool idle_skip = true;  ///< kernel quiescence skipping
};

struct SystemConfig {
    unsigned rpu_count = 16;
    lb::Policy lb_policy = lb::Policy::kRoundRobin;
    bool hw_reassembler = false;  ///< inline reorder engine in the LB
    /// Steering function for lb::Policy::kCustom (tenant pinning, etc.).
    std::function<uint32_t(const net::Packet&)> lb_custom_steer{};
    /// Overrides applied on top of the derived defaults; System fills in
    /// the broadcast network's rpu_count (the fabric counts its RPUs).
    dist::FabricConfig fabric{};
    rpu::Rpu::Config rpu_template{};
    msg::BroadcastNetwork::Config broadcast{};
    /// Elaboration-time netlist lint policy (see LintMode).
    LintMode lint = LintMode::kEnforce;
    /// Applied by the constructor to the kernel and every RPU core.
    SimTuning tuning{};
};

/// PR region capacities of the pre-laid-out floorplans (paper Figures 5-6;
/// equal to the "RPU" rows of Tables 3-4).
sim::ResourceFootprint pr_region_capacity(unsigned rpu_count);

/// LB PR block capacity ("LB" + "Remaining" rows of Tables 1-2).
sim::ResourceFootprint lb_region_capacity(unsigned rpu_count);

class System {
 public:
    explicit System(const SystemConfig& config);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    sim::Kernel& kernel() { return kernel_; }
    sim::Stats& stats() { return stats_; }
    lb::LoadBalancer& lb() { return *lb_; }
    dist::Fabric& fabric() { return *fabric_; }
    msg::BroadcastNetwork& broadcast() { return *broadcast_; }
    host::HostContext& host() { return *host_; }
    rpu::Rpu& rpu(unsigned idx) { return *rpus_.at(idx); }
    unsigned rpu_count() const { return unsigned(rpus_.size()); }
    const SystemConfig& config() const { return config_; }

    /// Install an accelerator (from `factory`) into every RPU.
    void attach_accelerators(
        const std::function<std::unique_ptr<rpu::Accelerator>()>& factory);

    /// Tester-side sinks wired to the two physical ports.
    dist::TrafficSink& sink(unsigned port) { return *sinks_.at(port); }

    /// Add a paced traffic source feeding one physical port.
    dist::TrafficSource& add_source(const dist::TrafficSource::Config& cfg,
                                    dist::TrafficSource::GenFn gen);

    // --- packet lifecycle observation ----------------------------------------

    /// Per-packet lifecycle callback, fired synchronously at every stage
    /// boundary a packet crosses (net::Stage), so an observer sees the
    /// packet's bytes as they are at that moment. Multiple observers may
    /// be registered; the flight recorder (obs/recorder.h), the health
    /// monitor and the golden-model scoreboard (oracle/) all use this API.
    using PacketObserver =
        std::function<void(net::Stage stage, const net::Packet& pkt, sim::Cycle now)>;

    /// Register an observer; returns a handle for remove_packet_observer.
    /// The System owns the Fabric/Rpu stage hooks from construction on, so
    /// do not call their set_trace directly. Observers that may die before
    /// the System must deregister; an observer living at least as long as
    /// the System may skip that.
    uint64_t add_packet_observer(PacketObserver fn);

    /// Deregister. Safe to call from within a dispatch.
    void remove_packet_observer(uint64_t handle);

    /// Advance simulated time.
    void run_cycles(sim::Cycle n) { kernel_.run(n); }
    void run_us(double us) { run_cycles(sim::Cycle(us * 1e3 / sim::kNsPerCycle)); }

    /// One named row of a utilization table.
    struct ResourceRow {
        std::string name;
        sim::ResourceFootprint fp;
    };

    /// The rows of Tables 1-2 for this configuration.
    std::vector<ResourceRow> resource_report() const;

    /// Run the full static lint over the elaborated netlist: structural
    /// checks, the paper's bus-width table, and the resource-model
    /// consistency checks (component sum vs "Complete design", fit on the
    /// VU9P). Returns every violation found (empty = clean). This is what
    /// the automatic pre-cycle-0 gate runs under LintMode::kEnforce/kWarn.
    std::vector<lint::Violation> lint_check() const;

    /// Order-insensitive digest of the architecturally visible state:
    /// every stats counter, sink frame/byte counts and latency histograms
    /// (count, sum, min, max and every non-empty bucket), per-RPU debug
    /// registers, slot occupancy and core time (cycles() and instret()),
    /// and the LB free-slot lists.
    /// Two runs of the same workload must produce the same fingerprint
    /// regardless of component tick order (kernel().shuffle_tick_order).
    uint64_t state_fingerprint() const;

 private:
    SystemConfig config_;
    sim::Kernel kernel_;
    sim::Stats stats_;
    std::vector<std::unique_ptr<rpu::Rpu>> rpus_;
    std::unique_ptr<lb::LoadBalancer> lb_;
    std::unique_ptr<msg::BroadcastNetwork> broadcast_;
    std::unique_ptr<dist::Fabric> fabric_;
    std::unique_ptr<host::HostContext> host_;
    std::vector<std::unique_ptr<dist::TrafficSink>> sinks_;
    std::vector<std::unique_ptr<dist::TrafficSource>> sources_;

    struct Observer {
        uint64_t handle = 0;
        PacketObserver fn;  ///< null = removed, compacted lazily
    };
    void dispatch_packet_event(net::Stage stage, const net::Packet& pkt);
    std::vector<Observer> observers_;
    uint64_t next_observer_handle_ = 1;
};

}  // namespace rosebud

#endif  // ROSEBUD_CORE_SYSTEM_H
