/// Command-line driver for the experiment harnesses — the equivalent of
/// the artifact's `make do TEST=... RECV=... PKT_SIZE=...` workflow, for
/// users who want single data points without writing C++.
///
///   $ ./examples/rosebud_cli forward --rpus 16 --size 64 --ports 2
///   $ ./examples/rosebud_cli latency --size 1500 --load 0.05
///   $ ./examples/rosebud_cli ips --mode sw --size 800
///   $ ./examples/rosebud_cli firewall --size 256
///   $ ./examples/rosebud_cli loopback --size 65
///   $ ./examples/rosebud_cli broadcast --rpus 16
///   $ ./examples/rosebud_cli resources --rpus 8
///   $ ./examples/rosebud_cli oracle --pipeline nat --seed 3 --packets 500
///   $ ./examples/rosebud_cli verify --program firewall --dot fw.dot
///   $ ./examples/rosebud_cli lint --rpus 16 --dot netlist.dot

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "core/experiments.h"
#include "core/pipeline.h"
#include "firmware/programs.h"
#include "fuzz/corpus.h"
#include "fuzz/driver.h"
#include "lint/netlist.h"
#include "obs/harness.h"
#include "obs/health.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "oracle/harness.h"
#include "sim/log.h"
#include "verify/verifier.h"

using namespace rosebud;

namespace {

/// All of `text` as a number, or a sim::fatal naming the flag (main turns
/// it into exit 2).
template <typename T>
T
parse_number(const std::string& flag, const std::string& text) {
    T v{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        sim::fatal("--" + flag + " needs a number, got '" + text + "'");
    return v;
}

struct Args {
    std::string experiment;
    std::map<std::string, std::string> kv;

    bool has(const std::string& k) const { return kv.count(k) > 0; }
    uint32_t u32(const std::string& k, uint32_t dflt) const {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : parse_number<uint32_t>(k, it->second);
    }
    double f64(const std::string& k, double dflt) const {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : parse_number<double>(k, it->second);
    }
    std::string str(const std::string& k, const std::string& dflt) const {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }
};

/// The flags each verb reads. main() rejects any other flag before the
/// verb runs, so a typo or a retired flag cannot pass silently.
const std::map<std::string, std::set<std::string>> kVerbFlags = {
    {"forward", {"rpus", "size", "ports", "load"}},
    {"latency", {"size", "load"}},
    {"ips", {"mode", "size", "rpus", "attack"}},
    {"firewall", {"size", "rpus", "attack"}},
    {"loopback", {"rpus", "size"}},
    {"broadcast", {"rpus"}},
    {"reconfig", {"rpus", "loads", "seed"}},
    {"resources", {"rpus"}},
    {"oracle", {"pipeline", "policy", "rpus", "seed", "packets", "size", "load",
                "attack", "reorder"}},
    {"verify", {"program", "dot", "rpus", "wcet", "json"}},
    {"lint", {"rpus", "dot", "json"}},
    {"fuzz", {"replay", "seed", "budget-ms", "cases", "gen", "corpus",
              "no-minimize", "verbose"}},
    {"profile", {"pipeline", "policy", "rpus", "seed", "size", "load", "attack",
                 "cycles", "epoch", "top", "vcd", "trace", "json"}},
    {"health", {"pipeline", "policy", "rpus", "seed", "size", "sizes", "load",
                "cycles", "slo", "epoch", "deep", "inject-stall", "stall-rpu",
                "stall-at", "json", "dump", "prom"}},
};

/// Flags that take no value.
const std::set<std::string> kSwitches = {"wcet", "deep", "inject-stall",
                                         "no-minimize", "verbose"};

/// The --pipeline/--policy/--rpus/--seed block of the oracle, profile and
/// health verbs. ids-hw gets the LB reassembler its firmware expects, as
/// exp::run_ips builds it. `label` receives the summary-line prefix.
PipelineSpec
pipeline_args(const Args& args, std::string& label) {
    PipelineSpec s;
    s.pipeline = parse_pipeline(args.str("pipeline", "forwarder"));
    std::string pol =
        args.str("policy", s.pipeline == Pipeline::kPigasusSwReorder ? "hash" : "rr");
    s.system.lb_policy = pol == "hash" ? lb::Policy::kHash
                         : pol == "ll" ? lb::Policy::kLeastLoaded
                                       : lb::Policy::kRoundRobin;
    s.system.hw_reassembler = s.pipeline == Pipeline::kPigasusHwReorder;
    s.system.rpu_count = args.u32("rpus", 8);
    s.seed = args.u32("seed", 1);
    label = std::string("pipeline=") + pipeline_name(s.pipeline) + " policy=" + pol +
            " rpus=" + std::to_string(s.system.rpu_count) +
            " reassembler=" + (s.system.hw_reassembler ? "on" : "off");
    return s;
}

/// Write one artifact of the profile/health verbs ("" = skip).
void
write_file(const std::string& path, const std::string& data) {
    if (path.empty()) return;
    if (FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(data.data(), 1, data.size(), f);
        std::fclose(f);
        std::printf("wrote %s (%zu bytes)\n", path.c_str(), data.size());
    } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
}

int
usage() {
    std::fprintf(stderr,
                 "usage: rosebud_cli <experiment> [--key value]...\n"
                 "experiments:\n"
                 "  forward    --rpus N --size N --ports 1|2 --load F\n"
                 "  latency    --size N --load F\n"
                 "             (round-trip mean/min/max are exact; p99 is the\n"
                 "              upper bound of its latency-histogram bucket)\n"
                 "  ips        --mode hw|sw --size N --rpus N --attack F\n"
                 "  firewall   --size N --rpus N --attack F\n"
                 "  loopback   --rpus N --size N\n"
                 "  broadcast  --rpus N\n"
                 "  reconfig   --rpus N --loads N --seed N\n"
                 "  resources  --rpus N\n"
                 "  oracle     --pipeline forwarder|firewall|ids-hw|ids-sw|nat\n"
                 "             --policy rr|hash|ll --rpus N --seed N --packets N\n"
                 "             --size N --load F --attack F --reorder F\n"
                 "             (differential run against the golden oracle;\n"
                 "              exits 1 on any divergence)\n"
                 "  verify     --program all|forwarder|two-step|firewall|ids-hw|ids-sw|nat\n"
                 "             --dot FILE (write the CFG as Graphviz DOT, annotated\n"
                 "              with block costs, loop bounds and the WCET path)\n"
                 "             --wcet (print the line-rate certificate: per-root\n"
                 "              WCET, loop bounds, stack bound, text-write proof)\n"
                 "             --json FILE (write the certificates as JSON)\n"
                 "             (static firmware verification; exits 1 on any error)\n"
                 "  lint       --rpus N (omit to sweep 4/8/16) --dot FILE\n"
                 "             --json FILE (netlist summary and violations as JSON)\n"
                 "             (elaborate every shipped config and run the static\n"
                 "              netlist checks; exits 1 on any violation)\n"
                 "  fuzz       --seed N --budget-ms N --cases N (per-generator cap)\n"
                 "             --gen fw|pkt|cfg|all --corpus DIR --no-minimize\n"
                 "             --verbose\n"
                 "             (conformance fuzzing campaign: firmware lockstep vs\n"
                 "              the golden ISA model, malformed packets under the\n"
                 "              differential scoreboard, randomized configs through\n"
                 "              linter + oracle + shuffled-tick fingerprint; the\n"
                 "              case sequence is a pure function of --seed, the\n"
                 "              budget only truncates it; exits 1 on any failure)\n"
                 "  fuzz       --replay FILE|DIR\n"
                 "             (replay corpus case(s); exits 1 unless all green)\n"
                 "  profile    --pipeline forwarder|firewall|ids-hw|ids-sw|nat\n"
                 "             --policy rr|hash|ll --rpus N --size N --load F\n"
                 "             --attack F --cycles N --seed N\n"
                 "             --epoch N --top N --vcd FILE --trace FILE --json FILE\n"
                 "             (full-stack telemetry run: stall attribution report,\n"
                 "              GTKWave waveforms, Perfetto trace, firmware hot spots;\n"
                 "              default outputs rosebud_profile.vcd,\n"
                 "              rosebud_trace.json, rosebud_profile.json)\n"
                 "  health     --pipeline forwarder|firewall|ids-hw|ids-sw|nat\n"
                 "             --policy rr|hash|ll --rpus N --seed N\n"
                 "             --sizes 64,256,...|--size N --load F --cycles N\n"
                 "             --slo \"latency_p99 <= 200us, drop_rate <= 0.05\"\n"
                 "             --epoch N --deep --inject-stall --stall-rpu N\n"
                 "             --stall-at N --json FILE --dump FILE --prom FILE\n"
                 "             (production health sweep: per-size SLO verdicts from\n"
                 "              the always-on monitor, metrics-registry snapshot,\n"
                 "              flight-recorder dump; --inject-stall wedges one RPU\n"
                 "              with a busy-loop image to exercise the watchdog.\n"
                 "              exits 1 on SLO violation, on an unexpected watchdog\n"
                 "              trip, or when an injected stall goes undetected)\n");
    return 2;
}

/// Run the static verifier over one named program; print per-check
/// verdicts (plus the line-rate certificate under `wcet`); optionally dump
/// the CFG. Returns the report for error counting / JSON serialization.
verify::Report
verify_one(const char* name, const fwlib::Program& prog, const std::string& dot_path,
           bool wcet) {
    verify::Options opts;
    opts.entry = prog.entry;
    verify::Report r = verify::verify_image(prog.image, opts);
    std::printf("%-18s %4u insns, %3zu blocks, %zu root(s)%s\n", name, r.instructions,
                r.blocks.size(), r.roots.size(),
                r.interrupts_possible ? ", interrupts" : "");
    static const verify::Check kChecks[] = {
        verify::Check::kDecode, verify::Check::kCfg,    verify::Check::kMemory,
        verify::Check::kMmio,   verify::Check::kCsr,    verify::Check::kUninit,
        verify::Check::kUnreachable, verify::Check::kLoop, verify::Check::kSlots,
    };
    for (verify::Check c : kChecks) {
        std::printf("  %-12s %s\n", verify::check_name(c),
                    r.check_passed(c) ? "pass" : "FAIL");
    }
    if (wcet) {
        const verify::Certificate& cert = r.cert;
        if (cert.wcet_bounded) {
            std::printf("  wcet         %llu insns / %llu cycles per activation\n",
                        (unsigned long long)cert.wcet_instructions,
                        (unsigned long long)cert.wcet_cycles);
        } else {
            std::printf("  wcet         UNBOUNDED\n");
        }
        std::printf("  stack        %s (%u bytes)\n",
                    cert.stack_bounded ? "bounded" : "UNBOUNDED", cert.stack_bytes);
        std::printf("  text-write   %s (%u unproven stores)\n",
                    cert.text_write_separation ? "separated" : "UNPROVEN",
                    cert.unproven_stores);
        for (const auto& lb : cert.loops) {
            if (lb.bounded) {
                std::printf("  loop 0x%04x  <= %llu trips (%u blocks)\n", lb.header,
                            (unsigned long long)lb.max_trips, lb.blocks);
            } else {
                std::printf("  loop 0x%04x  %s (%u blocks)\n", lb.header,
                            lb.observable ? "service loop" : "UNBOUNDED", lb.blocks);
            }
        }
    }
    if (!r.diags.empty()) std::printf("%s", r.summary().c_str());
    if (!dot_path.empty()) {
        std::string dot = verify::cfg_dot(prog.image, r, name);
        if (FILE* f = std::fopen(dot_path.c_str(), "w")) {
            std::fwrite(dot.data(), 1, dot.size(), f);
            std::fclose(f);
            std::printf("  CFG written to %s\n", dot_path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", dot_path.c_str());
        }
    }
    return r;
}

int run(const Args& args);

}  // namespace

int
main(int argc, char** argv) {
    if (argc < 2) return usage();
    Args args;
    args.experiment = argv[1];
    auto verb = kVerbFlags.find(args.experiment);
    if (verb == kVerbFlags.end()) return usage();
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0) return usage();
        const std::string key = argv[i] + 2;
        if (verb->second.count(key) == 0) {
            std::fprintf(stderr, "rosebud_cli %s: unknown flag --%s\n",
                         args.experiment.c_str(), key.c_str());
            return 2;
        }
        if (kSwitches.count(key) != 0) {
            args.kv[key] = "1";
            continue;
        }
        if (i + 1 >= argc) return usage();
        args.kv[key] = argv[++i];
    }

    // A bad value or configuration is the caller's error: one line, exit 2.
    try {
        return run(args);
    } catch (const sim::FatalError& e) {
        std::fprintf(stderr, "rosebud_cli %s: %s\n", args.experiment.c_str(), e.what());
        return 2;
    }
}

namespace {

/// Run the verb `args` names; its exit code.
int
run(const Args& args) {
    auto host_t0 = std::chrono::steady_clock::now();

    if (args.experiment == "forward") {
        exp::ForwardingParams p;
        p.rpu_count = args.u32("rpus", 16);
        p.size = args.u32("size", 1024);
        p.ports = args.u32("ports", 2);
        p.load = args.f64("load", 1.0);
        auto r = exp::run_forwarding(p);
        std::printf("size=%u rpus=%u: %.2f Gbps (%.2f Mpps), line %.2f Gbps "
                    "(%.1f%% of line)\n",
                    r.size, r.rpu_count, r.achieved_gbps, r.achieved_mpps, r.line_gbps,
                    100.0 * r.achieved_gbps / r.line_gbps);
    } else if (args.experiment == "latency") {
        exp::LatencyParams p;
        p.size = args.u32("size", 64);
        p.load = args.f64("load", 0.05);
        if (p.load > 0.5) p.warmup = 130000;
        auto r = exp::run_latency(p);
        std::printf("size=%u load=%.2f: mean %.3f us (min %.3f, max %.3f, p99 %.3f); "
                    "Eq.1 predicts %.3f us\n",
                    r.size, p.load, r.mean_us, r.min_us, r.max_us, r.p99_us, r.eq1_us);
    } else if (args.experiment == "ips") {
        exp::IpsParams p;
        p.mode = args.str("mode", "hw") == "sw" ? exp::IpsMode::kSwReorder
                                                : exp::IpsMode::kHwReorder;
        p.size = args.u32("size", 1024);
        p.rpu_count = args.u32("rpus", 8);
        p.attack_fraction = args.f64("attack", 0.01);
        auto r = exp::run_ips(p);
        std::printf("%s reorder, size=%u: %.1f Gbps (%.2f Mpps), %.1f cycles/packet, "
                    "%llu/%llu attacks to host\n",
                    p.mode == exp::IpsMode::kHwReorder ? "HW" : "SW", r.size,
                    r.achieved_gbps, r.achieved_mpps, r.cycles_per_packet,
                    (unsigned long long)r.matched_to_host,
                    (unsigned long long)r.expected_attacks);
    } else if (args.experiment == "firewall") {
        exp::FirewallParams p;
        p.size = args.u32("size", 1024);
        p.rpu_count = args.u32("rpus", 16);
        p.attack_fraction = args.f64("attack", 0.01);
        auto r = exp::run_firewall(p);
        std::printf("size=%u: absorbed %.1f Gbps (%.1f%% of line), blocked %llu "
                    "(expected %llu), forwarded %llu\n",
                    r.size, r.achieved_gbps, 100.0 * r.achieved_gbps / r.line_gbps,
                    (unsigned long long)r.blocked,
                    (unsigned long long)r.expected_blocked,
                    (unsigned long long)r.forwarded);
    } else if (args.experiment == "loopback") {
        auto r = exp::run_loopback(args.u32("rpus", 16), args.u32("size", 64));
        std::printf("size=%u: %.2f Gbps through the loopback chain (%.1f%% of line)\n",
                    r.size, r.achieved_gbps, 100.0 * r.fraction_of_line);
    } else if (args.experiment == "broadcast") {
        auto r = exp::run_broadcast(args.u32("rpus", 16));
        std::printf("sparse %.0f..%.0f ns, saturated %.0f..%.0f ns over %llu messages\n",
                    r.sparse_min_ns, r.sparse_max_ns, r.saturated_min_ns,
                    r.saturated_max_ns, (unsigned long long)r.messages);
    } else if (args.experiment == "reconfig") {
        PipelineSpec spec;
        spec.system.rpu_count = args.u32("rpus", 16);
        PipelineFixture fx = build_pipeline(spec);
        System& sys = fx.system();
        const fwlib::Program& fw = fx.firmware;
        sys.run_cycles(500);
        sim::Rng rng(args.u32("seed", 1));
        unsigned loads = args.u32("loads", 10);
        double total = 0;
        for (unsigned i = 0; i < loads; ++i) {
            total += sys.host()
                         .reconfigure(i % sys.rpu_count(), nullptr, fw.image, fw.entry, rng)
                         .total_ms;
        }
        std::printf("%u loads: %.1f ms average pause+load+boot\n", loads, total / loads);
    } else if (args.experiment == "oracle") {
        std::string label;
        PipelineSpec ps = pipeline_args(args, label);
        oracle::RunSpec s;
        s.pipeline = ps.pipeline;
        s.policy = ps.system.lb_policy;
        s.hw_reassembler = ps.system.hw_reassembler;
        s.rpu_count = ps.system.rpu_count;
        s.seed = ps.seed;
        s.max_packets = args.u32("packets", 250);
        s.packet_size = args.u32("size", 256);
        s.load = args.f64("load", 0.5);
        s.attack_fraction = args.f64("attack", 0.2);
        s.reorder_fraction = args.f64("reorder", 0.0);
        auto r = oracle::run_differential(s);
        std::printf("%s seed=%llu: offered %llu, "
                    "forwarded %llu, to host %llu (%llu punts), dropped %llu, "
                    "congestion %llu -> %llu divergence(s)\n",
                    label.c_str(), (unsigned long long)s.seed,
                    (unsigned long long)r.counts.offered,
                    (unsigned long long)r.counts.forwarded_wire,
                    (unsigned long long)r.counts.host_delivered,
                    (unsigned long long)r.counts.punted,
                    (unsigned long long)r.counts.fw_dropped,
                    (unsigned long long)r.counts.congestion_dropped,
                    (unsigned long long)r.counts.divergences);
        if (!r.report.empty()) std::printf("%s\n", r.report.c_str());
        if (!r.ok) return 1;
    } else if (args.experiment == "verify") {
        std::string which = args.str("program", "all");
        std::string dot = args.str("dot", "");
        struct Entry { const char* name; fwlib::Program prog; };
        std::vector<Entry> entries;
        if (which == "all" || which == "forwarder") {
            entries.push_back({"forwarder", fwlib::forwarder()});
        }
        if (which == "all" || which == "two-step") {
            entries.push_back({"two-step", fwlib::two_step_forwarder(args.u32("rpus", 16))});
        }
        if (which == "all" || which == "firewall") {
            entries.push_back({"firewall", fwlib::firewall()});
        }
        if (which == "all" || which == "ids-hw") {
            entries.push_back({"ids-hw", fwlib::pigasus_hw_reorder()});
        }
        if (which == "all" || which == "ids-sw") {
            entries.push_back({"ids-sw", fwlib::pigasus_sw_reorder()});
        }
        if (which == "all" || which == "nat") {
            entries.push_back({"nat", fwlib::nat()});
        }
        if (entries.empty()) return usage();
        const bool wcet = args.has("wcet");
        const std::string json_path = args.str("json", "");
        size_t errors = 0;
        std::string json = "[";
        for (const auto& e : entries) {
            // With --dot and multiple programs, suffix the file per program.
            std::string path = dot;
            if (!dot.empty() && entries.size() > 1) path = dot + "." + e.name;
            verify::Report r = verify_one(e.name, e.prog, path, wcet);
            errors += r.errors();
            if (json.size() > 1) json += ",";
            json += verify::certificate_json(r, e.name);
        }
        json += "]\n";
        if (!json_path.empty()) {
            if (FILE* f = std::fopen(json_path.c_str(), "w")) {
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                std::printf("certificate report written to %s\n", json_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
                return 1;
            }
        }
        if (errors != 0) {
            std::printf("%zu verifier error(s)\n", errors);
            return 1;
        }
    } else if (args.experiment == "lint") {
        // Elaborate every shipped LB-policy / reassembler combination and run
        // the static netlist checks on each. This is the same gate System
        // arms before cycle 0; running it standalone gives CI (and humans) a
        // pass/fail without executing a single cycle.
        std::string dot = args.str("dot", "");
        std::vector<unsigned> rpu_counts;
        if (args.has("rpus")) {
            rpu_counts.push_back(args.u32("rpus", 16));
        } else {
            rpu_counts = {4, 8, 16};
        }
        struct Combo { const char* name; lb::Policy policy; bool reassembler; };
        static const Combo kCombos[] = {
            {"rr", lb::Policy::kRoundRobin, false},
            {"hash", lb::Policy::kHash, false},
            {"ll", lb::Policy::kLeastLoaded, false},
            {"hash+reassembler", lb::Policy::kHash, true},
        };
        size_t total = 0;
        for (unsigned n : rpu_counts) {
            for (const Combo& c : kCombos) {
                SystemConfig cfg;
                cfg.rpu_count = n;
                cfg.lb_policy = c.policy;
                cfg.hw_reassembler = c.reassembler;
                System sys(cfg);
                auto violations = sys.lint_check();
                std::printf("rpus=%-2u %-18s %zu net(s), %zu port(s): %s\n", n,
                            c.name, sys.kernel().nets().size(),
                            sys.kernel().ports().size(),
                            violations.empty()
                                ? "clean"
                                : ("FAIL\n" + lint::report(violations)).c_str());
                total += violations.size();
            }
        }
        // Paper-configuration instance for the JSON export and the DOT dump.
        // Two inert traffic sources attach the MAC boundary components (no
        // cycle ever runs, so the generators are never called).
        SystemConfig cfg;
        cfg.rpu_count = rpu_counts.back();
        System sys(cfg);
        for (unsigned port = 0; port < 2; ++port) {
            dist::TrafficSource::Config src;
            src.port = port;
            sys.add_source(src, [] { return net::PacketPtr(); });
        }
        auto paper_violations = sys.lint_check();
        total += paper_violations.size();

        std::string json_path = args.str("json", "");
        if (!json_path.empty()) {
            std::string json =
                "{\"lint\":" + lint::lint_json(sys.kernel(), paper_violations) + "}\n";
            if (FILE* f = std::fopen(json_path.c_str(), "w")) {
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                std::printf("lint report written to %s\n", json_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
                return 1;
            }
        }
        if (!dot.empty()) {
            std::string graph = lint::to_dot(sys.kernel());
            if (FILE* f = std::fopen(dot.c_str(), "w")) {
                std::fwrite(graph.data(), 1, graph.size(), f);
                std::fclose(f);
                std::printf("netlist written to %s\n", dot.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", dot.c_str());
            }
        }
        if (total != 0) {
            std::printf("%zu lint violation(s)\n", total);
            return 1;
        }
    } else if (args.experiment == "fuzz") {
        if (args.has("replay")) {
            // Replay one corpus file, or every *.case under a directory.
            std::string target = args.str("replay", "");
            std::vector<std::string> paths = fuzz::corpus_list(target);
            if (paths.empty()) paths.push_back(target);
            size_t red = 0;
            for (const std::string& path : paths) {
                fuzz::CorpusCase c = fuzz::corpus_load(path);
                std::string detail;
                bool green = fuzz::corpus_replay(c, &detail);
                std::printf("%-5s %s: %s%s%s\n", green ? "green" : "RED",
                            path.c_str(), fuzz::corpus_kind_name(c.kind),
                            detail.empty() ? "" : " — ", detail.c_str());
                if (!green) ++red;
            }
            std::printf("replayed %zu case(s), %zu red\n", paths.size(), red);
            if (red != 0) return 1;
        } else {
            fuzz::FuzzPlan plan;
            plan.seed = parse_number<uint64_t>("seed", args.str("seed", "1"));
            plan.budget_ms = args.u32("budget-ms", 60'000);
            plan.max_cases = args.u32("cases", 0);
            std::string gen = args.str("gen", "all");
            plan.firmware = gen == "all" || gen == "fw";
            plan.packets = gen == "all" || gen == "pkt";
            plan.configs = gen == "all" || gen == "cfg";
            if (!plan.firmware && !plan.packets && !plan.configs) return usage();
            plan.minimize = !args.has("no-minimize");
            plan.corpus_dir = args.str("corpus", "");
            plan.verbose = args.has("verbose");
            fuzz::FuzzReport rep = fuzz::run_campaign(plan);
            std::printf("%s\n", rep.summary().c_str());
            for (const auto& f : rep.failures) {
                std::printf("FAILURE [%s seed %llu]%s%s\n  %s\n",
                            fuzz::corpus_kind_name(f.minimized.kind),
                            (unsigned long long)f.minimized.seed,
                            f.path.empty() ? "" : " -> ", f.path.c_str(),
                            f.detail.substr(0, 500).c_str());
            }
            if (!rep.ok()) return 1;
        }
    } else if (args.experiment == "profile") {
        std::string label;
        obs::ProfileSpec s;
        s.build = pipeline_args(args, label);
        s.traffic.packet_size = args.u32("size", 256);
        s.traffic.load = args.f64("load", 0.7);
        s.traffic.attack_fraction = args.f64("attack", 0.1);
        s.run_cycles = args.u32("cycles", 50'000);
        s.epoch_cycles = args.u32("epoch", 2048);
        auto r = obs::run_profile(s);

        std::printf("%s: %llu cycles, %llu frames out (%llu bytes)\n\n", label.c_str(),
                    (unsigned long long)r.cycles, (unsigned long long)r.rx_frames,
                    (unsigned long long)r.rx_bytes);
        std::printf("%s\n", obs::format_stall_report(r.stalls, args.u32("top", 12)).c_str());
        std::printf("%s", obs::annotate(r.firmware.image, r.aggregate).c_str());

        write_file(args.str("vcd", "rosebud_profile.vcd"), r.vcd);
        write_file(args.str("trace", "rosebud_trace.json"), r.trace);
        std::string json = "{\"pipeline\":\"" +
                           std::string(pipeline_name(s.build.pipeline)) +
                           "\",\"rpus\":" + std::to_string(s.build.system.rpu_count) +
                           ",\"cycles\":" + std::to_string(r.cycles) +
                           ",\"rx_frames\":" + std::to_string(r.rx_frames) +
                           ",\"stalls\":" + obs::stall_report_json(r.stalls) +
                           ",\"firmware\":" + obs::profile_json(r.aggregate) + "}";
        write_file(args.str("json", "rosebud_profile.json"), json);
    } else if (args.experiment == "health") {
        std::string label;
        obs::HealthSpec s;
        s.build = pipeline_args(args, label);
        s.load = args.f64("load", 0.9);
        s.run_cycles = args.u32("cycles", 40'000);
        s.slo = args.str("slo", s.slo);
        s.health.epoch_cycles = args.u32("epoch", 16'384);
        s.deep = args.has("deep");
        s.inject_stall = args.has("inject-stall");
        s.stall_rpu = args.u32("stall-rpu", 0);
        s.stall_at = args.u32("stall-at", 10'000);
        if (args.has("size")) {
            s.packet_sizes = {args.u32("size", 256)};
        } else if (args.has("sizes")) {
            s.packet_sizes.clear();
            std::string list = args.str("sizes", "");
            size_t start = 0;
            while (start <= list.size()) {
                size_t comma = list.find(',', start);
                if (comma == std::string::npos) comma = list.size();
                if (comma > start)
                    s.packet_sizes.push_back(parse_number<uint32_t>(
                        "sizes", list.substr(start, comma - start)));
                start = comma + 1;
            }
            if (s.packet_sizes.empty()) return usage();
        }
        auto r = obs::run_health(s);

        std::printf("%s load=%.2f slo=\"%s\"%s\n\n", label.c_str(), s.load,
                    r.slo.text.c_str(),
                    s.inject_stall ? " [stall injected]" : "");
        std::printf("  size   cycles   ingress    egress     drops    Gbps  "
                    "p50_us   p99_us  p999_us  drop%%  epochs  slo  watchdog\n");
        for (const auto& row : r.rows) {
            std::printf("  %4u %8llu %9llu %9llu %9llu %7.2f %7.2f %8.2f %8.2f "
                        "%6.2f %7llu  %-4s %s\n",
                        row.packet_size, (unsigned long long)row.cycles,
                        (unsigned long long)row.ingress,
                        (unsigned long long)row.egress,
                        (unsigned long long)row.drops, row.gbps, row.p50_us,
                        row.p99_us, row.p999_us, 100.0 * row.drop_rate,
                        (unsigned long long)row.epochs,
                        row.slo_pass ? "ok" : "FAIL",
                        row.tripped ? "TRIPPED" : "-");
        }
        if (r.watchdog_tripped)
            std::printf("\nwatchdog: %s\n", r.trip_summary.c_str());
        write_file(args.str("json", "rosebud_health.json"), r.flight_json);
        write_file(args.str("dump", "rosebud_health.txt"), r.flight_text);
        write_file(args.str("prom", "rosebud_metrics.prom"), r.metrics_prom);

        // An injected stall is *supposed* to trip the watchdog (SLO misses
        // are expected collateral); everything else expects a quiet run
        // that meets its SLO.
        bool fail;
        if (s.inject_stall) {
            fail = !r.watchdog_tripped;
            if (fail) std::printf("FAIL: injected stall was not detected\n");
        } else {
            fail = !r.slo_ok || r.watchdog_tripped;
        }
        if (fail) return 1;
    } else if (args.experiment == "resources") {
        SystemConfig cfg;
        cfg.rpu_count = args.u32("rpus", 16);
        System sys(cfg);
        for (const auto& row : sys.resource_report()) {
            std::printf("%s\n",
                        sim::format_footprint_row(row.name, row.fp, sim::kXcvu9p).c_str());
        }
    } else {
        return usage();
    }

    // Host-time summary for every experiment that ran simulated cycles
    // (static analyses — verify, lint, resources — print nothing extra).
    static const char* kTimed[] = {"forward",  "latency",   "ips",    "firewall",
                                   "loopback", "broadcast", "reconfig", "oracle",
                                   "profile",  "health"};
    for (const char* name : kTimed) {
        if (args.experiment != name) continue;
        double host_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - host_t0)
                            .count();
        std::printf("[host] %s: %.2f s host time\n", args.experiment.c_str(), host_s);
        break;
    }
    return 0;
}

}  // namespace
