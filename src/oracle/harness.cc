#include "oracle/harness.h"

#include <algorithm>
#include <memory>

#include "core/pipeline.h"
#include "net/tracegen.h"
#include "sim/log.h"

namespace rosebud::oracle {

RunResult
run_differential(const RunSpec& spec) {
    // Unlimited traffic never drains, so packets genuinely in flight at the
    // cutoff would be misreported as stuck.
    if (spec.max_packets == 0) {
        sim::fatal("oracle harness: max_packets must be finite "
                   "(the run must drain to empty for the scoreboard to close)");
    }
    PipelineSpec ps;
    ps.pipeline = spec.pipeline;
    ps.system.rpu_count = spec.rpu_count;
    ps.system.lb_policy = spec.policy;
    ps.system.hw_reassembler = spec.hw_reassembler;
    ps.seed = spec.seed;
    ps.rule_count = spec.rule_count;
    ps.blacklist_count = spec.blacklist_count;
    if (spec.tweak_config) {
        spec.tweak_config(ps.system);
        // Fuzzed configurations must reach the explicit lint_check() below
        // instead of dying at the automatic pre-cycle-0 gate.
        if (ps.system.lint == LintMode::kEnforce) ps.system.lint = LintMode::kWarn;
    }
    PipelineFixture fx = build_pipeline(ps);
    System& sys = fx.system();
    if (spec.shuffle_tick_order) sys.kernel().shuffle_tick_order(spec.seed);

    // The oracle reads the *same* rule objects the device accelerators
    // were built from, so divergences mean behavioral disagreement, not
    // configuration skew. (The NAT model ignores the blacklist.)
    OracleConfig ocfg;
    ocfg.pipeline = spec.pipeline;
    ocfg.lb_policy = spec.policy;
    ocfg.rpu_count = spec.rpu_count;
    ocfg.rules = fx.rules.get();
    ocfg.blacklist = fx.blacklist.get();

    // Corrupted-oracle hook: validates the divergence reporting path.
    if (spec.oracle_blacklist) ocfg.blacklist = spec.oracle_blacklist;

    DataplaneOracle oracle(ocfg);
    Scoreboard scoreboard(sys, oracle);

    net::TrafficSpec tspec;
    tspec.packet_size = spec.packet_size;
    tspec.attack_fraction = spec.attack_fraction;
    tspec.reorder_fraction = spec.reorder_fraction;
    tspec.flow_count = spec.flow_count;
    tspec.udp_fraction = spec.udp_fraction;
    tspec.seed = spec.seed * 2654435761u + 1;  // independent of rule synthesis

    dist::TrafficSource::Config src;
    src.port = 0;
    src.load = spec.load;
    src.max_packets = spec.max_packets;

    dist::TrafficSource::GenFn gen_fn;
    if (!spec.replay_frames.empty()) {
        // Corpus replay: hand the recorded frames to the source verbatim.
        auto frames =
            std::make_shared<std::vector<std::vector<uint8_t>>>(spec.replay_frames);
        auto next = std::make_shared<size_t>(0);
        gen_fn = [frames, next]() -> net::PacketPtr {
            if (*next >= frames->size()) return nullptr;
            auto pkt = std::make_shared<net::Packet>();
            pkt->data = (*frames)[*next];
            pkt->id = ++*next;
            return pkt;
        };
        src.max_packets = std::min<uint64_t>(spec.max_packets, frames->size());
    } else {
        auto gen = std::make_shared<net::TraceGenerator>(tspec, fx.rules.get(),
                                                         fx.blacklist.get());
        gen_fn = [gen] { return gen->next(); };
    }
    if (spec.mutate_frame) {
        // Applied before the source offers the frame, so the oracle's
        // ingress prediction and the device see identical bytes.
        gen_fn = [inner = std::move(gen_fn),
                  mutate = spec.mutate_frame]() -> net::PacketPtr {
            net::PacketPtr pkt = inner();
            if (pkt) mutate(*pkt);
            return pkt;
        };
    }
    sys.add_source(src, std::move(gen_fn));

    // Elaboration lint: running it across the sweep doubles as coverage
    // that every pipeline/policy/rpu-count combination builds a clean
    // netlist (the in-System pre-cycle-0 gate would also catch this, but
    // here the findings land in the differential report).
    auto lint_violations = sys.lint_check();

    if (spec.mid_run) {
        sys.run_cycles(spec.run_cycles / 2);
        spec.mid_run(sys);
        sys.run_cycles(spec.run_cycles - spec.run_cycles / 2);
    } else {
        sys.run_cycles(spec.run_cycles);
    }
    for (unsigned i = 0; i < spec.drain_rounds && scoreboard.outstanding() > 0; ++i) {
        sys.run_cycles(spec.drain_cycles);
    }

    RunResult res;
    res.counts = scoreboard.finish();
    res.report = scoreboard.report();
    res.fingerprint = sys.state_fingerprint();
    res.lint_violations = lint_violations.size();
    res.ok = res.counts.divergences == 0 && res.counts.offered > 0 &&
             lint_violations.empty();
    if (!lint_violations.empty()) {
        res.report = "netlist lint violations:\n" + lint::report(lint_violations) +
                     res.report;
    }
    return res;
}

}  // namespace rosebud::oracle
