/// \file
/// Telemetry aggregator — the concrete sim::TelemetrySink.
///
/// Attached to a System, it observes every instrumented net (sim::Fifo
/// primitives plus the abstract fabric/LB links) and classifies each net's
/// every cycle into exactly one of four states:
///
///   stalled  — a producer tried to push and was refused (backpressure)
///   busy     — data moved (a push or a pop landed) and nothing blocked
///   starved  — a consumer polled an empty net and nothing moved
///   idle     — no activity at all
///
/// Priority is stalled > busy > starved > idle, evaluated once per cycle
/// from monotonic per-cycle flags, so the classification is independent of
/// intra-cycle event order (and therefore of kernel tick-order shuffling).
/// For every net, busy + stalled + starved + idle == cycles_observed():
/// nets that first appear mid-run are backfilled with idle cycles.
///
/// Events arrive keyed by sim::NetId; a table filled at attach maps each
/// id to its NetStats, whose name-ordered map keeps every report, VCD and
/// trace in name order. A net declared after attach gets its entry on its
/// first event.
///
/// Each net's committed occupancy (and its peak) is read at end_cycle from
/// the kernel's occupancy probes, through the same id table; a probe of no
/// netlist net (an RPU's packet-slot census, kNoNet) is not tracked.
///
/// On top of the per-net totals the aggregator keeps:
///  * epoch time series — every `epoch_cycles` it rolls up per-component
///    busy/stall fractions;
///  * an optional VCD capture — per-net occupancy and 2-bit flow state
///    signals, viewable in GTKWave (see obs/vcd.h).
///
/// The aggregator never creates sim::Stats counters, so attaching it
/// leaves System::state_fingerprint() bit-identical.

#ifndef ROSEBUD_OBS_TELEMETRY_H
#define ROSEBUD_OBS_TELEMETRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/vcd.h"
#include "sim/telemetry.h"

namespace rosebud {
class System;
namespace sim {
class Kernel;
}  // namespace sim
}  // namespace rosebud

namespace rosebud::obs {

/// Per-net flow state encoded into the 2-bit VCD `state` signal.
enum class NetState : uint8_t { kIdle = 0, kBusy = 1, kStalled = 2, kStarved = 3 };

class Telemetry : public sim::TelemetrySink {
 public:
    struct Config {
        /// Epoch length for the utilization time series (0 = no epochs).
        uint64_t epoch_cycles = 2048;
        /// Capture per-net occupancy/state waveforms (costs memory
        /// proportional to activity; off for pure stall attribution).
        bool capture_vcd = false;
    };

    /// Lifetime totals for one net.
    struct NetStats {
        uint64_t busy = 0;
        uint64_t stalled = 0;
        uint64_t starved = 0;
        uint64_t idle = 0;

        uint64_t pushes = 0;       ///< accepted pushes
        uint64_t pops = 0;
        uint64_t blocked = 0;      ///< refused pushes (may exceed stalled)
        uint64_t polls_empty = 0;  ///< empty-poll events

        size_t occ = 0;       ///< committed occupancy at the last end_cycle
        size_t peak_occ = 0;
        size_t capacity = 0;  ///< declared netlist depth

        uint64_t cycles() const { return busy + stalled + starved + idle; }

        // Per-cycle flags, cleared by end_cycle().
        bool f_moved = false;
        bool f_blocked = false;
        bool f_polled = false;

        // Current-epoch accumulators.
        uint64_t e_busy = 0;
        uint64_t e_stalled = 0;

        // Waveform state.
        int sig_occ = -1;
        int sig_state = -1;
        unsigned last_state = 255;   ///< 255 = never emitted
        uint64_t last_occ = ~0ull;
    };

    /// One closed epoch of the utilization time series.
    struct Epoch {
        uint64_t end_cycle = 0;  ///< cycles_observed() when the epoch closed
        /// Per-component fraction of net-cycles spent busy / stalled
        /// (averaged over the component's instrumented nets).
        std::map<std::string, double> busy_frac;
        std::map<std::string, double> stall_frac;
    };

    Telemetry();
    explicit Telemetry(Config cfg);
    ~Telemetry() override;

    /// Start observing: registers with the System's kernel (replacing any
    /// previous sink) and pre-seeds one NetStats per declared net so fully
    /// idle nets still appear in reports with exact idle counts. The
    /// Telemetry must outlive the system's remaining simulation or call
    /// detach() first.
    void attach(System& sys);
    void detach();

    // sim::TelemetrySink interface.
    void net_event(sim::NetId net, NetEvent ev) override;
    void end_cycle(uint64_t completed) override;

    /// Cycles classified so far (== every net's four-bucket sum).
    uint64_t cycles_observed() const { return cycles_observed_; }

    const std::map<std::string, NetStats>& nets() const { return nets_; }
    const std::vector<Epoch>& epochs() const { return epochs_; }

    /// Waveform capture (empty unless Config::capture_vcd).
    const VcdWriter& vcd() const { return vcd_; }

 private:
    NetStats& net(sim::NetId id);
    void close_epoch();
    void capture_net(const std::string& name, NetStats& ns, NetState state,
                     uint64_t completed_cycle);

    Config cfg_;
    sim::Kernel* kernel_ = nullptr;
    std::map<std::string, NetStats> nets_;
    std::vector<NetStats*> by_id_;  ///< [NetId] -> entry of nets_; null = unseen
    std::vector<Epoch> epochs_;
    uint64_t cycles_observed_ = 0;
    VcdWriter vcd_;
};

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_TELEMETRY_H
