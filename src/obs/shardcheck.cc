#include "obs/shardcheck.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/pipeline.h"
#include "net/tracegen.h"
#include "sim/log.h"

namespace rosebud::obs {

ShardLatencyRecorder::ShardLatencyRecorder(const sim::Kernel& kernel,
                                           const lint::ShardPlan& plan,
                                           sim::TelemetrySink* next,
                                           bool fault_on_undercut)
    : kernel_(kernel), next_(next), fault_on_undercut_(fault_on_undercut) {
    for (const lint::ShardCut& c : plan.cuts) {
        if (c.edge.kind != lint::LatencyEdge::kData) continue;
        NetState& st = nets_[c.edge.net];
        st.certified = st.certified == 0
                           ? c.edge.latency
                           : std::min(st.certified, c.edge.latency);
    }
}

void
ShardLatencyRecorder::net_event(const std::string& net, NetEvent ev) {
    if (next_) next_->net_event(net, ev);
    auto it = nets_.find(net);
    if (it == nets_.end()) return;
    NetState& st = it->second;

    const sim::Kernel::Phase phase = kernel_.phase();
    if (ev == NetEvent::kPushOk) {
        if (phase != sim::Kernel::Phase::kTick) {
            // Host-phase injection bypasses the registered staging the
            // certificate reasons about; resync rather than measure.
            st.pending.clear();
            return;
        }
        st.pending.push_back(kernel_.now());
        // A net whose pops we never see (e.g. a drain the emitter does not
        // instrument) must not grow without bound; losing the oldest
        // entries only ever over-states latency, never under-states it.
        if (st.pending.size() > (1u << 16)) st.pending.pop_front();
    } else if (ev == NetEvent::kPop) {
        if (st.pending.empty()) return;  // resynced or pre-attach push
        if (phase == sim::Kernel::Phase::kIdle) {
            st.pending.pop_front();  // host drain: consume, claim nothing
            return;
        }
        uint64_t pushed = st.pending.front();
        st.pending.pop_front();
        uint64_t lat = kernel_.now() - pushed;
        ++st.messages;
        st.min_latency = std::min(st.min_latency, lat);
        if (lat < st.certified) {
            st.undercut = true;
            undercut_seen_ = true;
            if (fault_on_undercut_) {
                sim::fatal("shard-cut certificate violated on net '" + net +
                           "': observed cross-cut latency " + std::to_string(lat) +
                           " < certified bound " + std::to_string(st.certified) +
                           " @cycle " + std::to_string(kernel_.now()));
            }
        }
    }
}

void
ShardLatencyRecorder::net_occupancy(const std::string& net, size_t occupancy,
                                    size_t capacity) {
    if (next_) next_->net_occupancy(net, occupancy, capacity);
}

void
ShardLatencyRecorder::end_cycle(uint64_t completed) {
    if (next_) next_->end_cycle(completed);
}

std::vector<CutLatency>
ShardLatencyRecorder::observations() const {
    std::vector<CutLatency> out;
    for (const auto& [net, st] : nets_) {
        CutLatency c;
        c.net = net;
        c.certified = st.certified;
        c.messages = st.messages;
        c.min_latency = st.messages ? st.min_latency : 0;
        c.undercut = st.undercut;
        out.push_back(std::move(c));
    }
    return out;
}

std::string
ShardLatencyRecorder::report() const {
    std::ostringstream os;
    os << "shard-cut latency cross-check (" << nets_.size() << " cut nets)\n";
    for (const CutLatency& c : observations()) {
        os << "  " << c.net << ": certified >= " << c.certified << ", ";
        if (c.messages == 0) {
            os << "no messages observed\n";
        } else {
            os << "observed min " << c.min_latency << " over " << c.messages
               << " messages" << (c.undercut ? " [UNDERCUT]" : " [ok]") << "\n";
        }
    }
    return os.str();
}

ShardCheckResult
run_shard_check(const ShardCheckSpec& spec) {
    PipelineSpec ps;
    ps.system.rpu_count = spec.rpu_count;
    // The forwarder owns no tables, so its System may outlive the fixture.
    std::unique_ptr<System> sys = build_pipeline(ps).sys;

    // Two-port traffic so both MAC boundaries carry cross-cut messages.
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = spec.packet_size;
        tspec.seed = spec.seed * 2654435761u + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        dist::TrafficSource::Config src;
        src.port = port;
        src.load = spec.load;
        sys->add_source(src, [gen] { return gen->next(); });
    }

    ShardCheckResult res;
    res.plan = sys->shard_plan(spec.shards);
    std::string why;
    bool plan_ok = lint::validate_plan(sys->kernel(), res.plan, &why);

    ShardLatencyRecorder rec(sys->kernel(), res.plan, nullptr,
                             spec.fault_on_undercut);
    sys->kernel().set_telemetry(&rec);
    sys->run_cycles(spec.run_cycles);
    sys->kernel().set_telemetry(nullptr);

    res.cuts = rec.observations();
    res.cycles = spec.run_cycles;
    for (const CutLatency& c : res.cuts) res.messages += c.messages;
    res.ok = plan_ok && rec.ok();
    return res;
}

}  // namespace rosebud::obs
