/// \file
/// Telemetry sink interface — the substrate of the observability layer.
///
/// The paper's host control plane exposes "status counters ... transferred
/// bytes, frames, drops, or stalled cycles" (Section 4.3); this interface is
/// how the simulator grows that into full stall *attribution*. A TelemetrySink
/// registered with the Kernel receives a low-level event stream from every
/// registered primitive (sim::Fifo) and from components that own abstract
/// links (the fabric's VOQs, the LB assignment interface, the per-RPU ingress
/// links): push accepted, push blocked on credit, pop, and consumer-poll-
/// found-empty. Occupancy is not an event: at end_cycle the sink reads it
/// from the kernel's occupancy probes. The obs:: layer turns both into
/// per-cycle idle/busy/stalled/starved classification, VCD waveforms and
/// Perfetto traces.
///
/// Each event names its net by the sim::NetId that the net's declaration
/// returned, which the emitter keeps: an event site builds no name and looks
/// nothing up. The hooks cost one pointer compare per operation when no sink
/// is attached (the default), so production sweeps pay nothing; no
/// sim::Stats counters are created either way, which keeps
/// System::state_fingerprint bit-identical with telemetry on or off.
///
/// HealthProbe is the *production* counterpart: where a TelemetrySink wants
/// the complete per-primitive event stream (and therefore disables idle
/// skipping), a HealthProbe only needs a periodic
/// heartbeat plus on-demand reads of committed state. Attaching one costs a
/// single pointer compare per stepped cycle and leaves every kernel fast
/// path enabled — that is what lets the always-on health layer (obs::
/// HealthMonitor) ride along production sweeps within its overhead budget.

#ifndef ROSEBUD_SIM_TELEMETRY_H
#define ROSEBUD_SIM_TELEMETRY_H

#include <cstdint>

namespace rosebud::sim {

/// A declared net's identity: its index in Kernel::nets(), returned by
/// Kernel::declare_net (sim/kernel.h). A net is declared once, so the id
/// stays valid for the kernel's lifetime.
using NetId = uint32_t;

/// "No such net": Kernel::net_id() of a name nobody declared.
inline constexpr NetId kNoNet = ~NetId(0);

/// Receives the raw per-cycle event stream. Implementations classify and
/// aggregate; emitters never interpret.
class TelemetrySink {
 public:
    /// One micro-event on a net (a Fifo primitive or an abstract link).
    enum class NetEvent : uint8_t {
        kPushOk,       ///< a value was accepted this cycle (data moved in)
        kPushBlocked,  ///< a producer saw no credit (stalled-on-credit)
        kPop,          ///< a value was consumed this cycle (data moved out)
        kPollEmpty,    ///< a consumer polled and found nothing (starved)
    };

    virtual ~TelemetrySink() = default;

    /// An event on net `net` during the current cycle. Multiple events per
    /// net per cycle are expected; sinks classify on booleans, so emitters
    /// need not dedupe.
    virtual void net_event(NetId net, NetEvent ev) = 0;

    /// The clock edge: cycle `completed` has fully committed. Sinks close
    /// the per-cycle classification window here; it runs in the host phase,
    /// so the kernel's occupancy probes may be read.
    virtual void end_cycle(uint64_t completed) = 0;
};

/// A lightweight per-cycle heartbeat for always-on health monitoring.
///
/// Called once at the end of every *stepped* cycle, after all commits (and
/// after any TelemetrySink's end_cycle). Cycles elided by whole-system
/// fast-forward are NOT reported individually: by construction nothing can
/// change during them (every component is asleep and no host call can occur
/// inside the run loop), so implementations must tolerate gaps in
/// `completed` and may treat a gap as proof of system-wide idleness.
///
/// Unlike TelemetrySink, attaching a HealthProbe does not disable idle
/// skipping, creates no sim::Stats counters, and must
/// not mutate simulation state — the fingerprint-invariance tests hold with
/// a probe attached.
class HealthProbe {
 public:
    virtual ~HealthProbe() = default;

    /// Cycle `completed` has fully committed. Runs in the host phase
    /// (Kernel::phase() == kIdle), so committed primitive state may be
    /// read freely.
    virtual void on_cycle(uint64_t completed) = 0;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_TELEMETRY_H
