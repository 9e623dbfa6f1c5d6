// Simulator-speed benchmark: one paper point per invocation.
//
//   simbench --workload fwd64|fwd1500|ips1k --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics (mcycles_per_s, setup_s,
// peak_rss_mb); --trace 1 prints the per-layer metrics from a traced run
// and checks that it ends in the same state as an untraced run. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace {

using namespace simbench;
using rosebud::sim::Cycle;

/// Extra set-ups per replica, each in a short-lived child process so that
/// every one is the first System its process builds (later builds in one
/// process reuse the allocator's memory and run 3-4x faster). Every set-up
/// is the same work, and co-tenants only ever slow one down, so setup_s is
/// the fastest of these and each replica's own set-up, over all replicas.
constexpr int kColdSetups = 9;

/// Nominal Mcycles/s per workload on a 4-vCPU x86 VM. A run makes
/// seconds * nominal / window passes, a number fixed by its arguments, so
/// every run of a seed simulates the same cycles and ends in the same state.
double
nominal_mcps(Workload w) {
    switch (w) {
    case Workload::kFwd64: return 0.6;
    case Workload::kFwd1500: return 1.2;
    case Workload::kIps1k: return 0.7;
    }
    return 1.0;
}

/// Cycles run after the window so packets in flight reach the host.
constexpr Cycle kDrainCycles = 60'000;

struct Args {
    Workload workload = Workload::kFwd64;
    uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const char* msg) {
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload fwd64|fwd1500|ips1k --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            auto w = parse_workload(v);
            if (!w) usage(("unknown workload " + v).c_str());
            a.workload = *w;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1") usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end) usage(("bad number " + v).c_str());
    }
    if (!have_workload) usage("--workload is required");
    return a;
}

std::string
num(double v) {
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Correctness tally: every check is one attempted operation.
struct Gate {
    int attempted = 0;
    int failed = 0;
    void add(const Check& c) {
        ++attempted;
        failed += !c.ok;
        std::printf("[check] %-30s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                    c.detail.c_str());
    }
};

int
finish(const Gate& gate, const std::vector<Metric>& metrics) {
    for (const auto& m : metrics)
        std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                gate.failed ? "false" : "true", gate.attempted, gate.failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), num(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return gate.failed ? 1 : 0;
}

int
pass_count(const Args& a) {
    double passes = a.seconds * nominal_mcps(a.workload) * 1e6 / double(kWindowCycles);
    return int(std::max(1.0, std::round(passes)));
}

/// Post-window checks shared by both modes.
void
check_outputs(Gate& gate, Instance& inst, const Snapshot& from, const Snapshot& to,
              uint64_t seed, Trace* trace) {
    SpanScope s(trace, "check");
    for (const Check& c : check_window(inst, from, to)) gate.add(c);
    if (inst.spec.ips) gate.add(check_attacks_delivered(inst, kDrainCycles));
    gate.add(check_oracle(inst.workload, seed));
}

/// Seconds of one set-up in a fresh child process; negative if it failed.
double
cold_setup_s(const Args& a) {
    int fds[2];
    if (pipe(fds) != 0) return -1;
    pid_t pid = fork();
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        close(fds[0]);
        double s = double(build(a.workload, a.seed, nullptr).setup_ns) * 1e-9;
        bool ok = write(fds[1], &s, sizeof s) == ssize_t(sizeof s);
        std::_Exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    if (pid > 0) {
        if (read(fds[0], &s, sizeof s) != ssize_t(sizeof s)) s = -1;
        waitpid(pid, nullptr, 0);
    }
    close(fds[0]);
    return s;
}

/// Cold set-ups, then every pass. `inst` is left at the end of the last
/// window; `from`/`to` bracket it.
Replica
measure(const Args& a, Instance& inst, Snapshot& from, Snapshot& to) {
    // Before this process builds anything, so each child starts cold.
    std::vector<double> cold;
    for (int k = 0; k < kColdSetups; ++k)
        if (double s = cold_setup_s(a); s >= 0) cold.push_back(s);
    Replica r = run_passes(a.workload, a.seed, pass_count(a), inst, [&](size_t k) {
        if (k != 0) return;
        inst.probes->track_attacks = true;
        from = snapshot(inst);
    });
    to = snapshot(inst);
    r.setups.insert(r.setups.end(), cold.begin(), cold.end());
    return r;
}

int
run_untraced(const Args& a) {
    // Children get a copy of these; only this process's are checked.
    Instance inst;
    Snapshot from, to;
    Replicas rs = run_replicas([&] { return measure(a, inst, from, to); });
    uint64_t fingerprint = rs.done.front().passes.front().fingerprint;

    Gate gate;
    check_outputs(gate, inst, from, to, a.seed, nullptr);
    unsigned passes = 0, differ = 0;
    for (const Replica& r : rs.done) {
        for (const Pass& p : r.passes) differ += p.fingerprint != fingerprint;
        passes += unsigned(r.passes.size());
    }
    gate.add({"passes_agree", rs.lost == 0 && differ == 0,
              std::to_string(rs.done.size()) + " replicas, " + std::to_string(rs.lost) +
                  " lost, " + std::to_string(differ) + " of " + std::to_string(passes) +
                  " passes with another fingerprint"});

    std::vector<double> setups, rss;
    for (const Replica& r : rs.done) {
        setups.insert(setups.end(), r.setups.begin(), r.setups.end());
        rss.push_back(r.rss_mb);
    }
    std::vector<double> rates = slice_rates(rs.done);
    std::printf("workload %s seed %llu: %zu replicas x %d passes x %llu cycles, fingerprint "
                "%016llx\n",
                workload_name(a.workload), (unsigned long long)a.seed, rs.done.size(),
                pass_count(a), (unsigned long long)(to.cycle - from.cycle),
                (unsigned long long)fingerprint);
    std::printf("slice Mcycles/s over %zu slices (diagnostic): min %.4f q1 %.4f median %.4f "
                "q3 %.4f p99 %.4f max %.4f\n",
                rates.size(), quantile(rates, 0), quantile(rates, 0.25), quantile(rates, 0.5),
                quantile(rates, 0.75), quantile(rates, 0.99), quantile(rates, 1));
    std::printf("cold set-up s over %zu builds (diagnostic): min %.5f q1 %.5f median %.5f q3 %.5f "
                "max %.5f\n",
                setups.size(), quantile(setups, 0), quantile(setups, 0.25), quantile(setups, 0.5),
                quantile(setups, 0.75), quantile(setups, 1));
    return finish(gate, {{"mcycles_per_s", mcycles_per_s(rs.done), "Mcycles/s"},
                         {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
                         {"peak_rss_mb", quantile(rss, 0.5), "MB"}});
}

int
run_traced(const Args& a) {
    Gate gate;

    // The traced set-up comes first, so it is cold like those setup_s
    // counts. The untraced reference runs the same seed and cycles, for
    // the fingerprint and the tracing overhead.
    Trace trace(a.seed);
    Instance inst = build(a.workload, a.seed, &trace);
    Instance ref = build(a.workload, a.seed, nullptr);
    warm_up(ref, nullptr);
    warm_up(inst, &trace);
    inst.probes->track_attacks = true;
    Snapshot from = snapshot(inst);

    // Reference and traced slices alternate, so both see the same host
    // speed and trace.overhead compares like with like. Both simulate every
    // window, so the run makes half as many windows as an untraced one
    // makes passes.
    int64_t ref_ns = 0;
    int windows = std::max(1, pass_count(a) / 2);
    double awake_share = 0;
    for (int i = 0; i < windows; ++i) {
        SpanScope window(&trace, "window");
        awake_share += run_window(inst, &trace, [&](size_t) {
            SpanScope s(&trace, "reference_cycles");
            int64_t t0 = now_ns();
            ref.sys->run_cycles(kSliceCycles);
            ref_ns += now_ns() - t0;
        }).awake_share / windows;
    }
    uint64_t ref_fp = ref.sys->state_fingerprint();
    Snapshot to = snapshot(inst);
    uint64_t fp = inst.sys->state_fingerprint();
    double latency_samples = 0;
    for (unsigned p = 0; p < 2; ++p) latency_samples += double(inst.sys->sink(p).latency().count());

    check_outputs(gate, inst, from, to, a.seed, &trace);
    gate.add({"traced_fingerprint_matches", fp == ref_fp,
              "traced " + std::to_string(fp) + " untraced " + std::to_string(ref_fp)});
    std::string bad = trace.validate();
    gate.add({"spans_nest", bad.empty(), bad.empty() ? std::to_string(trace.spans().size()) + " spans" : bad});

    // Per-layer metrics from the spans.
    const auto& spans = trace.spans();
    std::map<std::string, double> setup_phase;
    for (const auto& s : spans)
        if (s.name.rfind("setup.", 0) == 0) setup_phase[s.name] = double(s.end_ns - s.start_ns) * 1e-9;
    auto phase = [&](const char* n) {
        auto it = setup_phase.find(n);
        return it == setup_phase.end() ? 0.0 : it->second;
    };
    double kernel_s = 0;
    std::map<std::string, Tally> tallies;
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        if (s.name != "run_cycles") continue;
        kernel_s += double(s.end_ns - s.start_ns) * 1e-9;
        for (const auto& [n, t] : s.tallies) {
            Tally& sum = tallies[n];
            sum.calls += t.calls;
            sum.timed += t.timed;
            sum.timed_ns += t.timed_ns;
        }
    }
    double wc = double(to.cycle - from.cycle);
    auto d = [&](const std::string& p, const std::string& sfx = "") {
        return double(to.sum(p, sfx) - from.sum(p, sfx));
    };
    double traffic_s = tallies["traffic"].ns() * 1e-9;
    double accel_s = tallies["accel"].ns() * 1e-9;
    double host_s = tallies["host.rx"].ns() * 1e-9;
    double self_s = kernel_s - traffic_s - accel_s - host_s;
    double jobs = d("pigasus.jobs");
    double pkts = double(to.offered - from.offered);
    double delivered = delivery(from, to).frames;

    if (!a.trace_out.empty()) {
        if (FILE* f = std::fopen(a.trace_out.c_str(), "w")) {
            std::string j = trace.to_json();
            std::fwrite(j.data(), 1, j.size(), f);
            std::fclose(f);
        }
    }
    return finish(gate, {
        {"setup.tables_s", phase("setup.tables"), "s"},
        {"setup.system_s", phase("setup.system"), "s"},
        {"setup.accel_s", phase("setup.accel"), "s"},
        {"setup.firmware_s", phase("setup.firmware"), "s"},
        {"setup.boot_s", phase("setup.boot"), "s"},
        {"run.kernel_s", kernel_s, "s"},
        {"traffic.self_s", traffic_s, "s"},
        {"traffic.ns_per_pkt", pkts ? traffic_s * 1e9 / pkts : 0.0, "ns"},
        {"traffic.pkts", pkts, "count"},
        {"accel.self_s", accel_s, "s"},
        {"accel.ns_per_job", jobs ? accel_s * 1e9 / jobs : 0.0, "ns"},
        {"accel.jobs", jobs, "count"},
        {"accel.matches", d("pigasus.matches"), "count"},
        {"host.rx_self_s", host_s, "s"},
        {"host.rx_frames", double(to.host_frames - from.host_frames), "count"},
        {"sim.run_self_s", self_s, "s"},
        {"sim.run_self_share", kernel_s ? self_s / kernel_s : 0.0, "ratio"},
        {"sim.awake_share", awake_share, "ratio"},
        {"sim.ff_share", double(to.fast_forwarded - from.fast_forwarded) / wc, "ratio"},
        {"rv.instret_per_cycle", double(to.instret - from.instret) / wc, "1/cycle"},
        {"rpu.rx_packets", d("rpu", "rx_packets"), "count"},
        {"rpu.tx_stall_cycles", d("rpu", "tx_stall_cycles"), "count"},
        {"rpu.dropped_packets", d("rpu", "dropped_packets"), "count"},
        {"lb.assigned", d("lb.assigned"), "count"},
        {"lb.assign_stall", d("lb.assign_stall"), "count"},
        {"lb.reasm_held", d("lb.reassembler.held"), "count"},
        {"dist.delivered_per_cycle", delivered / wc, "1/cycle"},
        {"dist.delivered_over_offered", pkts ? delivered / pkts : 0.0, "ratio"},
        {"dist.rx_fifo_drops", d("port", "rx_fifo_drops"), "count"},
        {"dist.voq_stall", d("fabric.voq_stall"), "count"},
        {"dist.latency_samples", latency_samples, "count"},
        {"trace.overhead", kernel_s / (double(ref_ns) * 1e-9) - 1.0, "ratio"},
    });
}

}  // namespace

int
main(int argc, char** argv) {
    Args a = parse_args(argc, argv);
    return a.trace ? run_traced(a) : run_untraced(a);
}
