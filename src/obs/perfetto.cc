#include "obs/perfetto.h"

#include "obs/json.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "sim/kernel.h"

namespace rosebud::obs {

namespace {

constexpr int kPacketPid = 1;
constexpr int kUtilPid = 2;

double
cycle_us(uint64_t cycle) {
    return sim::cycles_to_ns(sim::Cycle(cycle)) / 1e3;
}

void
emit_meta(JsonWriter& w, int pid, const char* name) {
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("process_name");
    w.key("pid").value(pid);
    w.key("args").begin_object().key("name").value(name).end_object();
    w.end_object();
}

}  // namespace

std::string
trace_json(const FlightRecorder& rec, const Telemetry* telem, size_t max_packets) {
    JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").begin_array();
    emit_meta(w, kPacketPid, "packets");
    if (telem) emit_meta(w, kUtilPid, "utilization");

    size_t emitted = 0;
    for (const auto& [id, tl] : rec.timelines()) {
        if (emitted++ >= max_packets) break;
        // Each consecutive stage pair becomes one async span named after
        // the stage the packet was *in*; the final event gets an instant
        // marker so drops/departures are visible.
        for (size_t i = 0; i + 1 < tl.size(); ++i) {
            const auto& a = tl[i];
            const auto& b = tl[i + 1];
            w.begin_object();
            w.key("ph").value("b");
            w.key("cat").value("packet");
            w.key("id").value(id);
            w.key("name").value(net::stage_name(a.stage));
            w.key("pid").value(kPacketPid);
            w.key("tid").value(uint64_t(a.a));
            w.key("ts").value(cycle_us(a.cycle));
            w.key("args").begin_object();
            w.key("size").value(uint64_t(a.b));
            w.end_object();
            w.end_object();

            w.begin_object();
            w.key("ph").value("e");
            w.key("cat").value("packet");
            w.key("id").value(id);
            w.key("name").value(net::stage_name(a.stage));
            w.key("pid").value(kPacketPid);
            w.key("tid").value(uint64_t(a.a));
            w.key("ts").value(cycle_us(b.cycle));
            w.end_object();
        }
        const auto& last = tl.back();
        w.begin_object();
        w.key("ph").value("i");
        w.key("s").value("t");
        w.key("cat").value("packet");
        w.key("name").value(net::stage_name(last.stage));
        w.key("pid").value(kPacketPid);
        w.key("tid").value(uint64_t(last.a));
        w.key("ts").value(cycle_us(last.cycle));
        w.end_object();
    }

    if (telem) {
        for (const auto& ep : telem->epochs()) {
            for (const auto& [comp, busy] : ep.busy_frac) {
                w.begin_object();
                w.key("ph").value("C");
                w.key("name").value("util." + comp);
                w.key("pid").value(kUtilPid);
                w.key("ts").value(cycle_us(ep.end_cycle));
                w.key("args").begin_object();
                w.key("busy").value(busy);
                auto it = ep.stall_frac.find(comp);
                w.key("stalled").value(it == ep.stall_frac.end() ? 0.0 : it->second);
                w.end_object();
                w.end_object();
            }
        }
    }

    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace rosebud::obs
