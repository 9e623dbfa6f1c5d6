#include "obs/recorder.h"

#include <cstdio>

#include "core/system.h"
#include "obs/json.h"

namespace rosebud::obs {

FlightRecorder::FlightRecorder(size_t capacity)
    : ring_(capacity ? capacity : 1) {
    notes_.reserve(64);
}

void
FlightRecorder::attach(System& sys) {
    sys.add_packet_observer([this](net::Stage stage, const net::Packet& pkt,
                                   sim::Cycle now) { record(stage, now, pkt); });
}

std::vector<FlightEvent>
FlightRecorder::timeline(uint64_t packet_id) const {
    std::vector<FlightEvent> out;
    for_each([&](const FlightEvent& e) {
        if (e.type == FlightEventType::kPacket && e.c == packet_id) out.push_back(e);
    });
    return out;
}

std::map<uint64_t, std::vector<FlightEvent>>
FlightRecorder::timelines() const {
    std::map<uint64_t, std::vector<FlightEvent>> out;
    for_each([&](const FlightEvent& e) {
        if (e.type == FlightEventType::kPacket) out[e.c].push_back(e);
    });
    return out;
}

std::string
FlightRecorder::format_timeline(uint64_t packet_id) const {
    std::vector<FlightEvent> tl = timeline(packet_id);
    std::string out = "packet " + std::to_string(packet_id);
    if (tl.empty()) return out + ": no events\n";
    out += ":\n";
    char buf[128];
    for (const FlightEvent& e : tl) {
        uint64_t rel = e.cycle - tl.front().cycle;
        std::snprintf(buf, sizeof(buf), "  +%6llu cyc (%8.1f ns)  %-18s %s%u size=%u\n",
                      (unsigned long long)rel, sim::cycles_to_ns(rel),
                      net::stage_name(e.stage), stage_at_port(e.stage) ? "port" : "rpu",
                      e.a, e.b);
        out += buf;
    }
    return out;
}

void
FlightRecorder::record_note(FlightEventType type, uint64_t cycle,
                            std::string note, uint8_t a, uint16_t b,
                            uint64_t c, uint32_t d) {
    int32_t idx;
    if (notes_.size() < kMaxNotes) {
        idx = int32_t(notes_.size());
        notes_.push_back(std::move(note));
    } else {
        // The table is bounded so a pathological trip storm cannot grow
        // memory without bound; late notes share one sentinel entry.
        if (notes_.size() == kMaxNotes) notes_.push_back("<note table full>");
        idx = int32_t(kMaxNotes);
    }
    FlightEvent& e = ring_[head_];
    e.cycle = cycle;
    e.c = c;
    e.d = d;
    e.b = b;
    e.a = a;
    e.type = type;
    e.note = idx;
    advance();
}

const std::string&
FlightRecorder::note(int32_t idx) const {
    static const std::string kEmpty;
    if (idx < 0 || size_t(idx) >= notes_.size()) return kEmpty;
    return notes_[size_t(idx)];
}

const char*
FlightRecorder::type_name(FlightEventType t) {
    switch (t) {
    case FlightEventType::kPacket: return "packet";
    case FlightEventType::kFault: return "fault";
    case FlightEventType::kReconfigPhase: return "reconfig";
    case FlightEventType::kWatchdogTrip: return "watchdog_trip";
    case FlightEventType::kSloViolation: return "slo_violation";
    case FlightEventType::kStallWarn: return "stall_warn";
    case FlightEventType::kTypeCount: break;
    }
    return "?";
}

void
FlightRecorder::clear() {
    head_ = 0;
    count_ = 0;
    recorded_ = 0;
}

std::string
FlightRecorder::dump_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("capacity").value(uint64_t(capacity()));
    w.key("recorded").value(recorded());
    w.key("overwritten").value(overwritten());
    w.key("events").begin_array();
    for_each([&](const FlightEvent& e) {
        w.begin_object();
        w.key("cycle").value(e.cycle);
        w.key("type").value(type_name(e.type));
        if (e.type == FlightEventType::kPacket) w.key("stage").value(net::stage_name(e.stage));
        w.key("a").value(uint64_t(e.a));
        w.key("b").value(uint64_t(e.b));
        w.key("c").value(e.c);
        w.key("d").value(uint64_t(e.d));
        if (e.note >= 0) w.key("note").value(note(e.note));
        w.end_object();
    });
    w.end_array();
    w.end_object();
    return w.str();
}

std::string
FlightRecorder::dump_text() const {
    std::string out;
    out.reserve(count_ * 64);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "flight recorder: %zu/%zu events held (%llu recorded, %llu lost to wrap)\n",
                  size(), capacity(), (unsigned long long)recorded(),
                  (unsigned long long)overwritten());
    out += line;
    for_each([&](const FlightEvent& e) {
        switch (e.type) {
        case FlightEventType::kPacket: {
            int n = std::snprintf(line, sizeof(line), "  @%-10llu %-16s %s%u pkt=%llu %uB",
                                  (unsigned long long)e.cycle, net::stage_name(e.stage),
                                  stage_at_port(e.stage) ? "port" : "rpu", e.a,
                                  (unsigned long long)e.c, e.b);
            if (e.d) std::snprintf(line + n, sizeof(line) - size_t(n), " latency=%uc\n", e.d);
            else std::snprintf(line + n, sizeof(line) - size_t(n), "\n");
            break;
        }
        case FlightEventType::kFault:
            std::snprintf(line, sizeof(line), "  @%-10llu FAULT         rpu%u %s\n",
                          (unsigned long long)e.cycle, e.a,
                          note(e.note).c_str());
            break;
        case FlightEventType::kReconfigPhase:
            std::snprintf(line, sizeof(line), "  @%-10llu reconfig      rpu%u %s\n",
                          (unsigned long long)e.cycle, e.a,
                          note(e.note).c_str());
            break;
        case FlightEventType::kWatchdogTrip:
            std::snprintf(line, sizeof(line), "  @%-10llu WATCHDOG TRIP %s\n",
                          (unsigned long long)e.cycle, note(e.note).c_str());
            break;
        case FlightEventType::kSloViolation:
            std::snprintf(line, sizeof(line), "  @%-10llu SLO VIOLATION %s\n",
                          (unsigned long long)e.cycle, note(e.note).c_str());
            break;
        case FlightEventType::kStallWarn:
            std::snprintf(line, sizeof(line), "  @%-10llu stall         rpu%u %s\n",
                          (unsigned long long)e.cycle, e.a,
                          note(e.note).c_str());
            break;
        case FlightEventType::kTypeCount:
            line[0] = '\0';
            break;
        }
        out += line;
    });
    return out;
}

}  // namespace rosebud::obs
