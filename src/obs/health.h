/// \file
/// Always-on production health layer (DESIGN.md §14): flight recorder,
/// forward-progress watchdog, SLO histograms, metrics registry — the
/// instrumentation a deployed middlebox keeps attached *in production*,
/// as opposed to the heavyweight debugging stack (obs::Telemetry, an
/// all-stage FlightRecorder, VCD) that is attached for a repro run.
///
/// The cost contract, and why this is NOT a TelemetrySink:
///
///  * Attaching a sim::TelemetrySink disables quiescence skipping (every
///    skipped cycle would be a hole in the trace). The health layer
///    instead uses three cheap seams that leave it on: System packet
///    observers (fire only when a packet actually moves), the
///    sim::HealthProbe end-of-cycle hook (one
///    pointer compare per *stepped* cycle; fast-forwarded cycles are proof
///    of system-wide idleness and are deliberately unobserved), and the
///    kernel's occupancy-probe registry (pull-based backlog census, read
///    only when a snapshot is wanted).
///  * Nothing here creates sim::Stats counters (they fold into
///    System::state_fingerprint) or mutates simulation state, so a run
///    with the health layer attached is bit-identical to one without.
///  * The per-packet path records into preallocated PODs (flight-recorder
///    ring, HDR histogram buckets) — zero steady-state allocations, proven
///    by tests/test_perf_hotpath.cc.
///  * Latency needs no per-packet state here: the fabric stamps each
///    packet with the cycle a MAC admitted it and its flow class
///    (net::Packet::mac_rx_cycle, flow_class), so every egress of a
///    packet stamped since attach is timed, and the in-flight count is
///    plain counter arithmetic.

#ifndef ROSEBUD_OBS_HEALTH_H
#define ROSEBUD_OBS_HEALTH_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/telemetry.h"

namespace rosebud::obs {

class Telemetry;

// ---------------------------------------------------------------------------
// SLO specification

/// One declarative bound, e.g. "tcp: latency_p99 <= 200us".
struct SloBound {
    enum class Kind : uint8_t { kLatencyP50, kLatencyP99, kLatencyP999, kDropRate };
    /// Unset means "all traffic".
    std::optional<net::FlowClass> cls;
    Kind kind = Kind::kLatencyP99;
    double limit = 0;  ///< cycles for latency bounds, fraction for drop rate
};

/// A parsed SLO: the bounds plus the original text for reporting.
struct SloSpec {
    std::vector<SloBound> bounds;
    std::string text;
    bool empty() const { return bounds.empty(); }
};

/// Parse the declarative SLO syntax (docs/OBSERVABILITY.md):
///
///   spec    := clause (("," | ";") clause)*
///   clause  := [class ":"] metric "<=" value [unit]
///   class   := "tcp" | "udp" | "other"            (default: all traffic)
///   metric  := "latency_p50" | "latency_p99" | "latency_p999" | "drop_rate"
///   unit    := "c" | "cycles" | "ns" | "us" | "ms" (latency; default cycles)
///            | "%"                                 (drop_rate; default fraction)
///
/// e.g. "latency_p99 <= 200us, drop_rate <= 0.05, tcp: latency_p999 <= 1ms".
/// sim::fatal on malformed input. Empty/whitespace input parses to an
/// empty spec (no checks).
SloSpec parse_slo(const std::string& text);

/// Render one bound back to canonical text ("tcp: latency_p99 <= 50000c").
std::string slo_bound_text(const SloBound& b);

// ---------------------------------------------------------------------------
// Configuration

/// Forward-progress watchdog tuning (operator-facing; see
/// docs/OBSERVABILITY.md).
struct WatchdogConfig {
    /// Trip when packets are in flight but no packet has egressed for this
    /// many cycles ("ingress backlogged while egress silent").
    uint64_t progress_timeout = 50'000;
    /// Per-RPU liveness: warn when an RPU holds packets but its firmware
    /// has shown no descriptor activity for this many cycles.
    uint64_t component_timeout = 20'000;
};

/// Health-layer configuration.
struct HealthConfig {
    /// SLO evaluation period. Each epoch closes with a pass/fail verdict.
    uint64_t epoch_cycles = 16'384;
    WatchdogConfig watchdog;
    SloSpec slo;  ///< empty = no SLO checks
};

// ---------------------------------------------------------------------------
// Results

/// One closed epoch's SLO verdict. POD so the verdict ring never
/// allocates on the steady-state path.
struct EpochVerdict {
    uint64_t start = 0;   ///< first cycle of the epoch
    uint64_t end = 0;     ///< cycle the epoch closed
    uint64_t offered = 0; ///< packets offered (ingress + rx-fifo drops)
    uint64_t egress = 0;
    uint64_t drops = 0;
    uint64_t p50 = 0;     ///< all-class latency percentiles, cycles
    uint64_t p99 = 0;
    uint64_t p999 = 0;
    double drop_rate = 0;
    uint32_t violations = 0;  ///< bitmask over SloSpec::bounds indices
    bool pass = true;
};

/// Snapshot captured when the forward-progress watchdog fires.
struct WatchdogTrip {
    uint64_t cycle = 0;
    std::string what;          ///< one-line cause ("egress silent 50001 cycles")
    std::string component;     ///< stalled component ("rpu3"), "" for system
    std::string deepest_net;   ///< deepest-backlog net at trip time
    size_t deepest_occupancy = 0;
    size_t deepest_capacity = 0;
    std::string snapshot;      ///< multi-line state capture
};

// ---------------------------------------------------------------------------
// HealthMonitor

/// The always-on health layer. Attach to a System before (or during) a
/// run; detach restores the system untouched. One monitor per System.
class HealthMonitor : public sim::HealthProbe {
 public:
    explicit HealthMonitor(HealthConfig cfg = {});
    ~HealthMonitor() override;

    HealthMonitor(const HealthMonitor&) = delete;
    HealthMonitor& operator=(const HealthMonitor&) = delete;

    /// Install the packet observer, the per-cycle health probe and the
    /// host reconfig observer. Idle skipping stays enabled.
    void attach(System& sys);

    /// Close the final partial epoch and remove every hook.
    void detach();

    bool attached() const { return sys_ != nullptr; }

    /// Chain the deep-debug telemetry for stall attribution in trip
    /// snapshots (optional; attaching a Telemetry disables idle-skip, so
    /// production runs leave this null).
    void set_stall_telemetry(const Telemetry* telem) { deep_ = telem; }

    // --- sim::HealthProbe ----------------------------------------------------
    void on_cycle(uint64_t completed) override;

    // --- accessors -----------------------------------------------------------
    const FlightRecorder& recorder() const { return recorder_; }
    /// The export surface: prometheus_text() renders the live registry
    /// at any host-phase point of the run.
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }
    const HealthConfig& config() const { return cfg_; }

    /// Close the in-progress epoch early (e.g. at end of run, so the final
    /// partial epoch still gets an SLO verdict). detach() calls this too.
    void flush_epoch();

    uint64_t ingress_packets() const { return ingress_; }
    uint64_t egress_packets() const { return egress_; }
    uint64_t egress_bytes() const { return egress_bytes_; }
    uint64_t dropped_packets() const {
        return dropped_at(net::Stage::kMacRxFifoDrop) + dropped_at(net::Stage::kFwDrop);
    }
    /// Drops at one drop stage (kMacRxFifoDrop or kFwDrop).
    uint64_t dropped_at(net::Stage s) const { return drops_[unsigned(s)]; }
    uint64_t core_faults() const { return core_faults_; }
    uint64_t watchdog_trips() const { return watchdog_trips_; }
    uint64_t slo_violations() const { return slo_violations_; }
    /// Packets admitted since attach that have neither egressed nor been
    /// dropped by firmware. A packet that egresses twice (host and wire)
    /// counts twice on the way out, so the count is clamped at 0.
    uint64_t inflight() const { return ingress_ > retired_ ? ingress_ - retired_ : 0; }

    /// Cumulative all-traffic latency distribution (cycles): MAC admission
    /// to egress of every packet stamped since attach.
    const sim::Histogram& latency() const { return lat_all_; }
    const sim::Histogram& latency(net::FlowClass c) const { return lat_cls_[unsigned(c)]; }

    const std::vector<EpochVerdict>& verdicts() const { return verdicts_; }
    uint64_t epochs_closed() const { return epochs_closed_; }
    /// True iff every closed epoch passed its SLO checks.
    bool slo_ok() const { return slo_violations_ == 0; }

    const std::vector<WatchdogTrip>& trips() const { return trips_; }

    /// Render everything — counters, epoch verdicts, trips, the flight
    /// recorder timeline — for post-mortem consumption.
    struct Dump {
        std::string text;
        std::string json;
    };
    Dump dump() const;

 private:
    void on_stage(net::Stage stage, const net::Packet& pkt, sim::Cycle now);
    void note_ingress(const net::Packet& pkt, uint64_t now);
    void note_egress(net::Stage stage, const net::Packet& pkt, uint64_t now);
    void note_drop(net::Stage stage, const net::Packet& pkt, uint64_t now);
    void note_activity(const net::Packet& pkt, uint64_t now);
    /// True for a packet a MAC admitted at or after attach.
    bool stamped_since_attach(const net::Packet& pkt) const {
        return pkt.mac_rx_cycle != net::kNoMacRx && pkt.mac_rx_cycle >= attach_cycle_;
    }

    void watchdog_check(uint64_t now);
    void trip(uint64_t now, std::string what, std::string component);
    std::string build_snapshot(uint64_t now) const;

    void close_epoch(uint64_t now);
    /// Measured value for one bound over the current epoch; returns false
    /// when the epoch holds no evidence for it (vacuous pass).
    bool epoch_measure(const SloBound& b, double* out) const;

    HealthConfig cfg_;
    System* sys_ = nullptr;
    uint64_t observer_handle_ = 0;
    uint64_t attach_cycle_ = 0;

    FlightRecorder recorder_;
    MetricsRegistry metrics_;

    // Cumulative accounting (uint64 members, never sim::Stats).
    uint64_t ingress_ = 0;
    uint64_t egress_ = 0;
    uint64_t egress_bytes_ = 0;
    uint64_t drops_[net::kStageCount] = {};  ///< by drop stage
    uint64_t core_faults_ = 0;
    uint64_t watchdog_trips_ = 0;
    uint64_t slo_violations_ = 0;
    /// Egresses and firmware drops of packets stamped since attach.
    uint64_t retired_ = 0;

    // Latency tracking.
    sim::Histogram lat_all_;
    sim::Histogram lat_cls_[net::kFlowClassCount];

    // Epoch state.
    uint64_t epoch_start_ = 0;
    uint64_t epoch_deadline_ = 0;
    uint64_t epoch_ingress_[net::kFlowClassCount] = {};
    uint64_t epoch_egress_ = 0;
    uint64_t epoch_drops_[net::kFlowClassCount] = {};
    sim::Histogram epoch_all_;
    sim::Histogram epoch_cls_[net::kFlowClassCount];
    std::vector<EpochVerdict> verdicts_;
    uint64_t epochs_closed_ = 0;

    // Watchdog state.
    uint64_t next_check_ = 0;
    uint64_t last_egress_ = 0;
    bool sys_tripped_ = false;
    std::vector<uint64_t> last_activity_;  ///< per RPU, descriptor-level
    std::vector<uint64_t> busy_since_;     ///< per RPU, occupancy>0 streak start
    std::vector<uint8_t> comp_tripped_;
    std::vector<uint8_t> was_faulted_;
    std::vector<WatchdogTrip> trips_;
    const Telemetry* deep_ = nullptr;
};

// ---------------------------------------------------------------------------
// Health sweep harness (the engine behind `rosebud_cli health`)

struct HealthSpec {
    /// The middlebox each sweep point builds; the seed also drives the
    /// traffic.
    PipelineSpec build;

    std::vector<uint32_t> packet_sizes = {64, 256, 512, 1024, 1500};
    double load = 0.9;
    sim::Cycle run_cycles = 40'000;

    /// Declarative SLO applied to every sweep point (parse_slo syntax).
    std::string slo = "latency_p99 <= 200us, drop_rate <= 0.05";
    HealthConfig health;

    /// Attach a full Telemetry alongside the monitor so trip snapshots
    /// carry ranked stall attribution (costs the idle-skip optimization).
    bool deep = false;

    /// Fault injection: wedge one RPU with the fwlib::busy_loop image at
    /// `stall_at` cycles into each run, then watch the watchdog catch it.
    bool inject_stall = false;
    unsigned stall_rpu = 0;
    sim::Cycle stall_at = 10'000;
};

/// One sweep point's outcome.
struct HealthRow {
    uint32_t packet_size = 0;
    uint64_t cycles = 0;
    uint64_t ingress = 0;
    uint64_t egress = 0;
    uint64_t drops = 0;
    double gbps = 0;       ///< wire throughput from egressed bytes
    double p50_us = 0;
    double p99_us = 0;
    double p999_us = 0;
    double drop_rate = 0;
    uint64_t epochs = 0;
    uint64_t violations = 0;
    bool slo_pass = true;
    bool tripped = false;
};

struct HealthResult {
    std::vector<HealthRow> rows;
    SloSpec slo;
    bool slo_ok = true;
    bool watchdog_tripped = false;
    std::string trip_summary;   ///< "" unless a trip happened
    std::string flight_text;    ///< recorder timeline (tripped run, else last)
    std::string flight_json;
    std::string metrics_prom;   ///< registry snapshot (same run as above)
};

/// Build each sweep point's pipeline, run it with the health layer
/// attached, optionally inject a firmware stall, and collect verdicts.
HealthResult run_health(const HealthSpec& spec);

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_HEALTH_H
