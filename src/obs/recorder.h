/// \file
/// Flight recorder — a fixed-capacity, zero-allocation ring of compact
/// typed events (DESIGN.md §14), and the one store of per-packet stage
/// events.
///
/// Two uses share it. The health layer (obs/health.h) feeds its recorder
/// from the per-packet observer and watchdog hooks, so when a run wedges or
/// blows an SLA at cycle 40M the story is there *without* a re-run; on a
/// fault, a watchdog trip, or an explicit dump() the ring is rendered as
/// JSON plus a human-readable timeline. A recorder attach()ed to a System
/// instead records every stage of every packet — the simulator's answer to
/// "FPGA developers frequently debug their designs by looking at
/// simulation waveforms" (paper Section 2.3) — and answers per-packet
/// timeline queries and the Perfetto export (obs/perfetto.h).
///
/// Recording is write-one-POD-struct-into-a-preallocated-ring — no strings,
/// no allocation, a few compares — so it is legal on the
/// hot path under the zero-allocation proof of tests/test_perf_hotpath.cc.
/// Rare events (trips, faults, reconfig phases, SLO violations) may carry a
/// short detail string; those intern into a bounded side table and only
/// those events pay for it.

#ifndef ROSEBUD_OBS_RECORDER_H
#define ROSEBUD_OBS_RECORDER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/packet.h"

namespace rosebud {
class System;
}

namespace rosebud::obs {

/// Event types held by the flight recorder. Keep this enum dense — the
/// dump code indexes a name table by it.
enum class FlightEventType : uint8_t {
    kPacket = 0,       ///< packet crossed `stage` (a = port or rpu, b = size, c = id,
                       ///< d = latency cycles when known)
    kFault,            ///< component fault observed (a = rpu, note)
    kReconfigPhase,    ///< host PR flow phase (a = rpu, note = phase)
    kWatchdogTrip,     ///< forward-progress watchdog fired (note = summary)
    kSloViolation,     ///< per-epoch SLO check failed (note = verdict)
    kStallWarn,        ///< per-component liveness stall attributed (a = rpu, note)
    kTypeCount,
};

/// True for the stages that happen at a MAC or host port, where a packet
/// event's `a` is the port; every other stage happens at an RPU.
constexpr bool stage_at_port(net::Stage s) {
    return s == net::Stage::kMacRx || s == net::Stage::kMacRxFifoDrop ||
           s == net::Stage::kHostDeliver || s == net::Stage::kMacTx;
}

/// One recorded event: 32 bytes, POD, no ownership.
struct FlightEvent {
    uint64_t cycle = 0;
    uint64_t c = 0;       ///< packet id or wide argument
    uint32_t d = 0;       ///< extra argument (e.g. latency in cycles)
    uint16_t b = 0;       ///< size or small argument
    uint8_t a = 0;        ///< port / rpu
    FlightEventType type = FlightEventType::kPacket;
    net::Stage stage = net::Stage::kMacRx;  ///< kPacket only
    int32_t note = -1;    ///< index into the note table, -1 = none
};
static_assert(sizeof(FlightEvent) == 32, "FlightEvent must stay 32 bytes");

/// Fixed-capacity event ring. Construction sizes the ring (the only
/// allocation); record() never allocates. When full, the oldest events are
/// overwritten — a flight recorder keeps the *recent* past.
class FlightRecorder {
 public:
    explicit FlightRecorder(size_t capacity = 4096);

    // attach() hands `this` to the System's observer list.
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Record every stage of every packet in `sys` from now on (through
    /// System::add_packet_observer). The recorder must outlive the
    /// system's remaining simulation.
    void attach(System& sys);

    /// Record one packet crossing `stage`: a = the port at MAC/host stages
    /// (in_iface on the way in, out_iface on the way out), else the RPU
    /// (`dest_rpu`: the RPU holding the packet, except at kRpuEgress, where
    /// it is the send's loopback target, 0 for a wire or host send);
    /// b = size (saturating); c = id; d = `latency`. Never allocates.
    void record(net::Stage stage, uint64_t cycle, const net::Packet& pkt,
                uint32_t latency = 0) {
        FlightEvent& e = ring_[head_];
        e.cycle = cycle;
        e.c = pkt.id;
        e.d = latency;
        e.b = uint16_t(pkt.size() > 0xFFFF ? 0xFFFF : pkt.size());
        e.a = pkt.dest_rpu;
        if (stage == net::Stage::kMacRx || stage == net::Stage::kMacRxFifoDrop)
            e.a = uint8_t(pkt.in_iface);
        else if (stage_at_port(stage))
            e.a = uint8_t(pkt.out_iface);
        e.type = FlightEventType::kPacket;
        e.stage = stage;
        e.note = -1;
        advance();
    }

    /// Record a rare event carrying a detail string. The note interns into
    /// a bounded table (allocates; never call from the per-packet path).
    void record_note(FlightEventType type, uint64_t cycle, std::string note,
                     uint8_t a = 0, uint16_t b = 0, uint64_t c = 0,
                     uint32_t d = 0);

    /// Events currently held, oldest first.
    size_t size() const { return count_; }
    size_t capacity() const { return ring_.size(); }

    /// Total events ever recorded (so dumps report how much history the
    /// ring has already shed).
    uint64_t recorded() const { return recorded_; }
    uint64_t overwritten() const { return recorded_ - count_; }

    /// Visit held events oldest-first.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        size_t start = (head_ + ring_.size() - count_) % ring_.size();
        for (size_t i = 0; i < count_; ++i)
            fn(ring_[(start + i) % ring_.size()]);
    }

    /// Packet events held for one packet id, oldest first (empty if none).
    std::vector<FlightEvent> timeline(uint64_t packet_id) const;

    /// Every held packet event grouped by packet id (ids ascending, each
    /// timeline oldest first). A packet whose first events the ring has
    /// already overwritten shows a partial timeline.
    std::map<uint64_t, std::vector<FlightEvent>> timelines() const;

    /// Human-readable timeline of one packet, in cycles and ns since its
    /// first held event.
    std::string format_timeline(uint64_t packet_id) const;

    /// Resolve a FlightEvent::note index ("" for -1 / out of range).
    const std::string& note(int32_t idx) const;

    /// Human-readable name of an event type.
    static const char* type_name(FlightEventType t);

    /// Drop the ring contents (capacity and notes are kept).
    void clear();

    /// Render the held events as a JSON object (schema in
    /// docs/OBSERVABILITY.md, "Production health").
    std::string dump_json() const;

    /// Render the held events as an aligned, human-readable timeline.
    std::string dump_text() const;

 private:
    void advance() {
        ++recorded_;
        head_ = (head_ + 1) % ring_.size();
        if (count_ < ring_.size()) ++count_;
    }

    std::vector<FlightEvent> ring_;
    size_t head_ = 0;   ///< next write position
    size_t count_ = 0;
    uint64_t recorded_ = 0;
    /// Interned detail strings for rare events. Bounded: once full, new
    /// notes all collapse onto a final "<note table full>" entry.
    std::vector<std::string> notes_;
    static constexpr size_t kMaxNotes = 1024;
};

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_RECORDER_H
