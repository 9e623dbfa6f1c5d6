/// Simulation-speed benchmark (host time, not simulated time).
///
/// Two execution modes of the same workloads:
///  * reference — predecode off, idle skipping off: the plain
///    interpret-everything two-phase kernel;
///  * tuned     — predecoded RV32 dispatch + quiescence skipping with
///    timed sleep (the defaults every experiment harness runs with).
///
/// Both modes must produce bit-identical architectural state: every run is
/// fingerprinted (System::state_fingerprint) and any divergence fails the
/// benchmark — speed from a wrong simulation is meaningless. Further rows:
/// the health layer's attached-vs-detached overhead, the low-load speedup
/// (gated at >= 1.5x over reference, and on at least 75% of its cycles
/// being fast-forwarded), the line-rate MTU point (gated on a mean awake
/// share <= 0.25: the RPUs must sleep through their own transfers, within
/// a few poll-loop periods of each packet), and the Figure 7 forwarding
/// sweep, reference vs tuned (results must match exactly).
///
/// Set ROSEBUD_BENCH_JSON=<dir> to export machine-readable rows.

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/experiments.h"
#include "core/pipeline.h"
#include "net/tracegen.h"
#include "obs/health.h"

using namespace rosebud;

namespace {

double
now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Mode {
    const char* name;
    SimTuning tuning;
};

// "reference" interprets every issued instruction and ticks every
// component every cycle.
const Mode kModes[] = {
    {"reference", {.predecode = false, .idle_skip = false}},
    {"tuned", {.predecode = true, .idle_skip = true}},
};
const Mode& kReference = kModes[0];
const Mode& kTuned = kModes[1];

struct RunResult {
    double host_s = 0;
    uint64_t cycles = 0;
    uint64_t packets = 0;
    uint64_t fingerprint = 0;
    uint64_t fast_forwarded = 0;  ///< cycles skipped by whole-system fast-forward
    double awake_share = 0;       ///< mean awake share at the sample points
};

/// The three fixed workloads (8 RPUs, round-robin LB, tables seeded 11).
struct Workload {
    const char* name;
    Pipeline pipeline;
};
const Workload kForwarder{"forwarder", Pipeline::kForwarder};
const Workload kFirewall{"firewall", Pipeline::kFirewall};
const Workload kPigasus{"pigasus", Pipeline::kPigasusHwReorder};

/// One fixed workload run under explicit tuning; returns host time, the
/// simulated cycle count, delivered packets, and the state fingerprint.
/// When `health` is non-null, a HealthMonitor with that config rides along
/// for the whole run (attached before traffic, detached only after the
/// fingerprint is read) — this is how the <=5% production-health overhead
/// claim is measured.
RunResult
run_pipeline(const Workload& w, const Mode& m,
             const obs::HealthConfig* health = nullptr,
             uint64_t run_cycles = 60'000) {
    double t0 = now_s();

    PipelineSpec spec;
    spec.pipeline = w.pipeline;
    spec.system.hw_reassembler = w.pipeline == Pipeline::kPigasusHwReorder;
    spec.system.tuning = m.tuning;
    spec.seed = 11;
    spec.rule_count = 64;
    spec.blacklist_count = 512;
    PipelineFixture fx = build_pipeline(spec);
    System& sys = fx.system();
    sys.host().set_rx_handler([](net::PacketPtr) {});
    sys.run_cycles(500);

    std::unique_ptr<obs::HealthMonitor> mon;
    if (health) {
        mon = std::make_unique<obs::HealthMonitor>(*health);
        mon->attach(sys);
    }

    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = 512;
        tspec.attack_fraction = w.pipeline == Pipeline::kForwarder ? 0.0 : 0.05;
        tspec.seed = 21 + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, fx.rules.get(),
                                                         fx.blacklist.get());
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 0.7},
                       [gen]() { return gen->next(); });
    }
    sys.run_cycles(run_cycles);

    RunResult out;
    out.cycles = sys.kernel().now();
    out.packets = sys.sink(0).frames() + sys.sink(1).frames();
    // Fingerprint taken while the monitor is still attached: the health
    // layer must not perturb a single bit of architectural state.
    out.fingerprint = sys.state_fingerprint();
    out.host_s = now_s() - t0;
    if (mon) {
        mon->flush_epoch();
        mon->detach();
    }
    return out;
}

/// The 16-RPU forwarder at 2x100G of `size` B frames at `load` of line
/// rate, for `cycles` after a 500-cycle boot. Host time covers the
/// measured cycles only; construction is outside it. A nonzero
/// `sample_every` slices the run and records the mean share of awake
/// components at the slice ends.
RunResult
run_fwd16(const Mode& m, uint32_t size, double load, sim::Cycle cycles,
          sim::Cycle sample_every = 0) {
    PipelineSpec spec;
    spec.system.rpu_count = 16;
    spec.system.tuning = m.tuning;
    PipelineFixture fx = build_pipeline(spec);
    System& sys = fx.system();
    sys.run_cycles(500);
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = size;
        tspec.seed = 2654435761u + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        sys.add_source({.port = port, .line_gbps = 100.0, .load = load},
                       [gen]() { return gen->next(); });
    }

    sim::Kernel& k = sys.kernel();
    const sim::Cycle ff0 = k.fast_forwarded_cycles();
    RunResult out;
    const double t0 = now_s();
    if (sample_every == 0) {
        sys.run_cycles(cycles);
    } else {
        unsigned samples = 0;
        for (sim::Cycle c = 0; c < cycles; c += sample_every, ++samples) {
            sys.run_cycles(sample_every);
            out.awake_share += double(k.awake_count()) / double(k.component_count());
        }
        out.awake_share /= samples;
    }
    out.host_s = now_s() - t0;
    out.cycles = cycles;
    out.packets = sys.sink(0).frames() + sys.sink(1).frames();
    out.fingerprint = sys.state_fingerprint();
    out.fast_forwarded = k.fast_forwarded_cycles() - ff0;
    return out;
}

/// The low-duty forwarding point where timed sleep pays: 256 B frames at
/// 0.5% of line rate, so the DUT idles between packets and the paced
/// sources sleep until their next frame is due.
RunResult
run_lowload(const Mode& m) {
    return run_fwd16(m, 256, 0.005, 242'000);
}

/// The Figure 7a MTU point: 1500 B frames at line rate. Each forwarder
/// core polls an empty descriptor register through most of every packet
/// interval while its RPU streams the frame in and out, so the RPUs sleep
/// until their next engine event is due.
RunResult
run_mtu(const Mode& m) {
    return run_fwd16(m, 1500, 1.0, 120'000, 100);
}

/// Best of 3 reference/tuned pairs by speedup (hosts jitter); every rep is
/// gated on fingerprint equality.
struct Pair {
    RunResult ref, tuned;
    double speedup = 0;
};

Pair
best_pair(const char* workload, RunResult (*run)(const Mode&), int& failures) {
    Pair best;
    for (int rep = 0; rep < 3; ++rep) {
        RunResult r = run(kReference);
        RunResult t = run(kTuned);
        if (t.fingerprint != r.fingerprint) {
            std::fprintf(stderr, "FATAL: %s tuned fingerprint diverges from the "
                                 "reference run\n", workload);
            ++failures;
        }
        if (r.host_s / t.host_s > best.speedup) best = {r, t, r.host_s / t.host_s};
    }
    return best;
}

/// The JSON rows of a best_pair() measurement; the tuned row also carries
/// `key` = `value`, the workload's deterministic gate.
void
pair_rows(bench::JsonResults& json, const char* workload, const Pair& p,
          const char* key, double value) {
    json.row({{"workload", workload},
              {"mode", "reference"},
              {"host_s", bench::num(p.ref.host_s)},
              {"cycles", std::to_string(p.ref.cycles)},
              {"cycles_per_s", bench::num(double(p.ref.cycles) / p.ref.host_s)}});
    json.row({{"workload", workload},
              {"mode", "tuned"},
              {"host_s", bench::num(p.tuned.host_s)},
              {"cycles", std::to_string(p.tuned.cycles)},
              {"packets", std::to_string(p.tuned.packets)},
              {"cycles_per_s", bench::num(double(p.tuned.cycles) / p.tuned.host_s)},
              {"packets_per_s", bench::num(double(p.tuned.packets) / p.tuned.host_s)},
              {"speedup", bench::num(p.speedup)},
              {key, bench::num(value)},
              {"fingerprint_match",
               p.tuned.fingerprint == p.ref.fingerprint ? "yes" : "NO"}});
}

/// The Figure 7a forwarding sweep (16 RPUs, 2x100G, every packet size)
/// under one tuning; all simulated results are returned for cross-mode
/// equality checking.
double
fig7_sweep(const SimTuning& t, std::vector<exp::ForwardingPoint>& points,
           uint64_t& cycles) {
    points.clear();
    cycles = 0;
    double host = 0;
    for (uint32_t size : exp::figure7_sizes()) {
        exp::ForwardingParams p;
        p.rpu_count = 16;
        p.size = size;
        p.ports = 2;
        p.tuning = t;
        const double t0 = now_s();
        points.push_back(exp::run_forwarding(p));
        host += now_s() - t0;
        cycles += 500 + p.warmup + p.window;
    }
    return host;
}

}  // namespace

int
main() {
    bench::JsonResults json("simspeed");
    int failures = 0;

    bench::heading("Simulation speed: fixed workloads, 8 RPUs, 240k cycles");
    std::printf("%-10s %-10s %10s %14s %14s %18s\n", "workload", "mode", "host(s)",
                "Mcycles/s", "kpkts/s", "fingerprint");
    for (const Workload& w : {kForwarder, kFirewall, kPigasus}) {
        uint64_t ref_fp = 0;
        double ref_s = 0;
        for (const Mode& m : kModes) {
            // Long runs + best-of-3: these per-mode rows feed the
            // perf-regression gate (bench/check_regression.py), which
            // applies a 10% tolerance — the timing floor has to be stable
            // to a few percent for that to hold on shared machines.
            const uint64_t kGateCycles = 240'000;
            RunResult r = run_pipeline(w, m, nullptr, kGateCycles);
            for (int rep = 1; rep < 3; ++rep) {
                RunResult again = run_pipeline(w, m, nullptr, kGateCycles);
                if (again.host_s < r.host_s) r = again;
            }
            if (m.tuning.predecode == false) {
                ref_fp = r.fingerprint;
                ref_s = r.host_s;
            }
            bool match = r.fingerprint == ref_fp;
            std::printf("%-10s %-10s %10.3f %14.2f %14.1f   0x%016llx%s\n",
                        w.name, m.name, r.host_s,
                        double(r.cycles) / r.host_s / 1e6,
                        double(r.packets) / r.host_s / 1e3,
                        (unsigned long long)r.fingerprint, match ? "" : "  MISMATCH");
            json.row({{"workload", w.name},
                      {"mode", m.name},
                      {"host_s", bench::num(r.host_s)},
                      {"cycles", std::to_string(r.cycles)},
                      {"packets", std::to_string(r.packets)},
                      {"cycles_per_s", bench::num(double(r.cycles) / r.host_s)},
                      {"packets_per_s", bench::num(double(r.packets) / r.host_s)},
                      {"speedup", bench::num(ref_s / r.host_s)},
                      {"fingerprint_match", match ? "yes" : "NO"}});
            if (!match) {
                std::fprintf(stderr,
                             "FATAL: %s/%s fingerprint diverges from reference\n",
                             w.name, m.name);
                ++failures;
            }
        }
    }

    bench::heading("Health-layer overhead: tuned mode, detached vs attached");
    {
        // Full production health config: flight recorder, watchdog, SLO
        // histograms, metrics registry — everything `rosebud_cli health`
        // attaches. Longer runs (240k cycles) plus best-of-3 on each side
        // keep host-timer noise well under the 5% threshold being gated.
        obs::HealthConfig hc;
        hc.slo = obs::parse_slo("latency_p99 <= 200us, drop_rate <= 0.05");
        const uint64_t kOverheadCycles = 480'000;
        std::printf("%-10s %12s %12s %10s %18s\n", "workload", "detached(s)",
                    "attached(s)", "overhead", "fingerprint");
        for (const Workload& w : {kForwarder, kPigasus}) {
            // Warm caches/allocator before timing anything.
            run_pipeline(w, kTuned, nullptr, kOverheadCycles);
            // Host clocks on shared machines drift (frequency scaling,
            // co-tenancy), so absolute best-of-N is unstable. Instead run
            // detached/attached back-to-back in pairs — drift within a pair
            // is negligible — and take the median of the per-pair ratios,
            // which is robust to a few noise-contaminated pairs.
            RunResult det, att;
            std::vector<double> ratios;
            for (int rep = 0; rep < 7; ++rep) {
                // Alternate order each rep to cancel any ordering bias.
                RunResult a, d;
                if (rep % 2 == 0) {
                    d = run_pipeline(w, kTuned, nullptr, kOverheadCycles);
                    a = run_pipeline(w, kTuned, &hc, kOverheadCycles);
                } else {
                    a = run_pipeline(w, kTuned, &hc, kOverheadCycles);
                    d = run_pipeline(w, kTuned, nullptr, kOverheadCycles);
                }
                ratios.push_back(a.host_s / d.host_s);
                det = d;
                att = a;
            }
            std::sort(ratios.begin(), ratios.end());
            double overhead = ratios[ratios.size() / 2] - 1.0;
            bool match = att.fingerprint == det.fingerprint;
            std::printf("%-10s %12.3f %12.3f %+9.1f%%   %s%s\n",
                        w.name, det.host_s, att.host_s,
                        overhead * 100.0, match ? "identical" : "MISMATCH",
                        overhead > 0.05 ? "  (over 5% target)" : "");
            json.row({{"workload", w.name},
                      {"mode", "tuned+health"},
                      {"host_s", bench::num(att.host_s)},
                      {"detached_s", bench::num(det.host_s)},
                      {"health_overhead", bench::num(overhead)},
                      {"cycles", std::to_string(att.cycles)},
                      {"packets", std::to_string(att.packets)},
                      {"fingerprint_match", match ? "yes" : "NO"}});
            if (!match) {
                std::fprintf(stderr,
                             "FATAL: %s health-attached fingerprint diverges\n",
                             w.name);
                ++failures;
            }
            // Hard-fail only at 2x the target: shared runners jitter a few
            // percent even with paired medians, and the JSON row is the
            // precise record the regression gate diffs against baselines.
            if (overhead > 0.10) {
                std::fprintf(stderr,
                             "FATAL: %s health overhead %.1f%% exceeds 5%% "
                             "target by more than 2x\n",
                             w.name, overhead * 100.0);
                ++failures;
            }
        }
    }

    bench::heading("Timed sleep at low load: 16 RPUs, 2x100G, 256B @ load "
                   "0.005, tuned vs reference");
    {
        const Pair p = best_pair("lowload", run_lowload, failures);
        // Deterministic companion to the host-time floor: the sources must
        // really sleep between frames. Without timed sleep the share is ~0.
        const double ff_share = double(p.tuned.fast_forwarded) / double(p.tuned.cycles);
        std::printf("reference: %.3f s   tuned: %.3f s   speedup: %.2fx (floor "
                    "1.5x)   fast-forwarded: %.3f (floor 0.75)   fingerprint: %s\n",
                    p.ref.host_s, p.tuned.host_s, p.speedup, ff_share,
                    p.tuned.fingerprint == p.ref.fingerprint ? "identical" : "MISMATCH");
        pair_rows(json, "lowload", p, "ff_share", ff_share);
        if (p.speedup < 1.5) {
            std::fprintf(stderr,
                         "FATAL: low-load speedup %.2fx below the 1.5x floor\n",
                         p.speedup);
            ++failures;
        }
        if (ff_share < 0.75) {
            std::fprintf(stderr,
                         "FATAL: low-load fast-forward share %.3f below 0.75 "
                         "(timed sleep lost)\n", ff_share);
            ++failures;
        }
    }

    bench::heading("Line rate at MTU: 16 RPUs, 2x100G, 1500B @ load 1.0, "
                   "tuned vs reference");
    {
        const Pair p = best_pair("mtu", run_mtu, failures);
        // Deterministic companion to host time, like ff_share above: the
        // RPUs must sleep through their own RX and TX transfers, and the
        // idle-loop watcher must prove each core's poll loop within a few
        // periods of its last send. With per-cycle engine countdowns the
        // share is ~0.76; with the watcher waiting out its 64-cycle
        // re-anchor after every packet, ~0.32.
        const double awake = p.tuned.awake_share;
        std::printf("reference: %.3f s   tuned: %.3f s   speedup: %.2fx   "
                    "awake share: %.3f (ceiling 0.25)   fingerprint: %s\n",
                    p.ref.host_s, p.tuned.host_s, p.speedup, awake,
                    p.tuned.fingerprint == p.ref.fingerprint ? "identical" : "MISMATCH");
        pair_rows(json, "mtu", p, "awake_share", awake);
        if (awake > 0.25) {
            std::fprintf(stderr,
                         "FATAL: MTU awake share %.3f above 0.25 (the RPUs no "
                         "longer sleep between their packets)\n", awake);
            ++failures;
        }
    }

    bench::heading("Figure 7a forwarding sweep: reference vs tuned host time");
    std::vector<exp::ForwardingPoint> ref_pts, tuned_pts;
    uint64_t cycles = 0;
    double ref_s = fig7_sweep(kReference.tuning, ref_pts, cycles);
    double tuned_s = fig7_sweep(kTuned.tuning, tuned_pts, cycles);
    bool diverged = false;
    for (size_t i = 0; i < ref_pts.size(); ++i) {
        // Exactness gate: the speedups must not change a single result.
        if (ref_pts[i].achieved_gbps != tuned_pts[i].achieved_gbps ||
            ref_pts[i].achieved_mpps != tuned_pts[i].achieved_mpps) {
            std::fprintf(stderr, "FATAL: tuned sweep diverges at size %u\n",
                         ref_pts[i].size);
            diverged = true;
            ++failures;
        }
    }
    double speedup = ref_s / tuned_s;
    std::printf("reference: %.2f s   tuned: %.2f s   speedup: %.2fx   "
                "results: %s\n",
                ref_s, tuned_s, speedup, diverged ? "DIVERGED" : "identical");
    json.row({{"workload", "fig7_sweep"},
              {"reference_s", bench::num(ref_s)},
              {"tuned_s", bench::num(tuned_s)},
              {"cycles", std::to_string(cycles)},
              {"speedup", bench::num(speedup)}});

    return failures == 0 ? 0 : 1;
}
