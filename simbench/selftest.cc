// Self-test of the benchmark itself (not of the simulator):
//
//  1. paper_point: at seed 0, each workload's simulated goodput and packet
//     rate over the exp harness's window equal exp::run_forwarding /
//     exp::run_ips for the same point, bit for bit, so the hand-built
//     System is the paper configuration.
//  2. trace_transparent: a traced build (timed generator, wrapped
//     accelerators, timed rx handler) ends in the same
//     System::state_fingerprint() as an untraced one.
//  3. negative_control: a fixed busy-wait in every generator call lowers
//     mcycles_per_s, measured by the benchmark's own replicas and
//     estimator, by more than its bound, so the benchmark can see a
//     slowdown of that size.
//  4. sparse_control: the same, with the busy-wait only in every 50th
//     slice, so a cost that lands in few slices shows too.
//
//   simbench_selftest --bound B
//
// run.py --selftest passes the mcycles_per_s bound from BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiments.h"
#include "measure.h"
#include "workload.h"

namespace {

using namespace simbench;
using namespace rosebud;

int g_failed = 0;

void
report(Workload w, const char* name, bool ok, const std::string& detail) {
    g_failed += !ok;
    std::printf("[selftest] %-8s %-18s %s  %s\n", workload_name(w), name, ok ? "ok  " : "FAIL",
                detail.c_str());
    std::fflush(stdout);
}

void
paper_point(Workload w) {
    Instance inst = build(w, 0, nullptr);
    inst.sys->run_cycles(inst.spec.warmup);
    Snapshot from = snapshot(inst);
    inst.sys->run_cycles(inst.spec.window);
    Delivery got = delivery(from, snapshot(inst));

    Delivery want;
    if (inst.spec.ips) {
        exp::IpsPoint p = exp::run_ips(exp::IpsParams{});
        want.gbps = p.achieved_gbps;
        want.mpps = p.achieved_mpps;
    } else {
        exp::ForwardingParams fp;
        fp.size = inst.spec.size;
        exp::ForwardingPoint p = exp::run_forwarding(fp);
        want.gbps = p.achieved_gbps;
        want.mpps = p.achieved_mpps;
    }
    char buf[200];
    std::snprintf(buf, sizeof buf, "bench %.6f Gbps %.6f Mpps, exp %.6f Gbps %.6f Mpps", got.gbps,
                  got.mpps, want.gbps, want.mpps);
    report(w, "paper_point", got.gbps == want.gbps && got.mpps == want.mpps, buf);
}

void
trace_transparent(Workload w) {
    Instance plain = build(w, 1, nullptr);
    Trace trace(1);
    Instance traced = build(w, 1, &trace);
    sim::Cycle n = plain.spec.warmup + plain.spec.window;
    plain.sys->run_cycles(n);
    traced.sys->run_cycles(n);
    uint64_t a = plain.sys->state_fingerprint();
    uint64_t b = traced.sys->state_fingerprint();
    std::string bad = trace.validate();
    report(w, "trace_transparent", a == b && bad.empty(),
           "fingerprints " + std::to_string(a) + " / " + std::to_string(b) +
               (bad.empty() ? "" : "; " + bad));
}

/// The sparse control slows every kSparseEvery-th slice of the window.
constexpr size_t kSparseEvery = 50;
static_assert(kWindowSlices % kSparseEvery == 0);

/// Passes per replica in each control measurement.
constexpr int kControlPasses = 3;

struct Rates {
    double mcps = 0;  ///< mcycles_per_s, the benchmark's metric
    double p99 = 0;   ///< 99th percentile of the pooled slice rates
    unsigned lost = 0;
};

/// mcycles_per_s of `w` at seed 1, measured as the benchmark measures
/// it, with a busy-wait of `delay_ns` per generator call in every
/// `every`-th slice of the window.
Rates
control_rates(Workload w, int64_t delay_ns, size_t every) {
    Replicas rs = run_replicas([&] {
        Instance inst;
        return run_passes(w, 1, kControlPasses, inst, [&](size_t k) {
            inst.probes->gen_delay_ns = k % every == 0 ? delay_ns : 0;
        });
    });
    return {mcycles_per_s(rs.done), quantile(slice_rates(rs.done), 0.99), rs.lost};
}

void
report_drop(Workload w, const char* name, const Rates& base, const Rates& slowed,
            int64_t delay_ns, double bound) {
    double drop = 1.0 - slowed.mcps / base.mcps;
    char buf[240];
    std::snprintf(buf, sizeof buf, "%lld ns per generator call: %.4f -> %.4f Mcycles/s, drop %.3f "
                  "(bound %.3f); p99 slice rate drop %.3f", (long long)delay_ns, base.mcps,
                  slowed.mcps, drop, bound, 1.0 - slowed.p99 / base.p99);
    report(w, name, drop > bound && base.lost == 0 && slowed.lost == 0, buf);
}

void
negative_control(Workload w, double bound) {
    Rates base = control_rates(w, 0, 1);

    // Size the busy-wait so that, if timing works, the generator alone
    // costs as much host time as the rest of the simulator: the expected
    // drop is 50% in both controls.
    uint64_t calls;
    {
        Instance inst = build(w, 1, nullptr);
        inst.sys->run_cycles(inst.spec.warmup);
        uint64_t calls0 = inst.probes->offered;
        inst.sys->run_cycles(4 * kSliceCycles);
        calls = inst.probes->offered - calls0;
    }
    double ns_per_call = 1e3 / base.mcps * double(4 * kSliceCycles) / double(calls);
    int64_t delay = int64_t(ns_per_call);
    report_drop(w, "negative_control", base, control_rates(w, delay, 1), delay, bound);
    int64_t sparse = int64_t(ns_per_call * double(kSparseEvery));
    report_drop(w, "sparse_control", base, control_rates(w, sparse, kSparseEvery), sparse, bound);
}

}  // namespace

int
main(int argc, char** argv) {
    double bound = argc == 3 && std::string(argv[1]) == "--bound" ? std::atof(argv[2]) : -1;
    if (!(bound > 0 && bound < 1)) {
        std::fprintf(stderr, "usage: simbench_selftest --bound B\n");
        return 2;
    }
    for (Workload w : {Workload::kFwd64, Workload::kFwd1500, Workload::kIps1k}) {
        paper_point(w);
        trace_transparent(w);
        negative_control(w, bound);
    }
    std::printf("[selftest] %s\n", g_failed ? "FAILED" : "passed");
    return g_failed ? 1 : 0;
}
