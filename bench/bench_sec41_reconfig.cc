/// Section 4.1: runtime partial reconfiguration of one RPU while the rest
/// of the system keeps forwarding. The paper measures pause + bitstream
/// load + boot at 756 ms on average across 320 loads.
///
/// The always-on health layer rides along: it observes every load's phase
/// transitions in the flight recorder and closes an SLO epoch periodically,
/// so the bench reports *measured* drop/latency verdicts for the no-pause
/// claim instead of a bare packet count.

#include <memory>

#include "accel/firewall.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "firmware/programs.h"
#include "net/rules.h"
#include "obs/health.h"

using namespace rosebud;

int
main() {
    PipelineSpec spec;
    spec.system.rpu_count = 16;
    PipelineFixture fx = build_pipeline(spec);
    System& sys = fx.system();
    const fwlib::Program& fw = fx.firmware;
    sys.run_cycles(500);

    // The no-pause claim, stated as an SLO: while RPUs are being swapped
    // under live traffic, p99 latency stays under 100 us and at most 1% of
    // offered packets drop, per 50k-cycle epoch.
    obs::HealthConfig hc;
    hc.epoch_cycles = 50'000;
    hc.slo = obs::parse_slo("latency_p99 <= 100us, drop_rate <= 0.01");
    obs::HealthMonitor mon(hc);
    mon.attach(sys);

    // Background traffic so the drain phase has real work.
    uint64_t id = 0;
    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 0.3}, [&id] {
        net::PacketBuilder b;
        b.ipv4(0x0a000001, 0x0a000002).udp(1, 2).frame_size(512);
        auto p = b.build();
        p->id = id++;
        return p;
    });
    sys.run_cycles(5000);

    sim::Rng rng(2023);
    sim::Rng bl_rng(7);
    auto blacklist = net::Blacklist::synthesize(1050, bl_rng);
    auto fw_prog = fwlib::firewall();

    bench::heading("Section 4.1: RPU partial reconfiguration, 320 loads");
    double total = 0;
    double min_ms = 1e18;
    double max_ms = 0;
    double drain_total_us = 0;
    const int kLoads = 320;
    for (int i = 0; i < kLoads; ++i) {
        unsigned target = unsigned(i) % 16;
        bool to_firewall = i % 2 == 0;
        auto t = sys.host().reconfigure(
            target,
            to_firewall
                ? std::function<std::unique_ptr<rpu::Accelerator>()>(
                      [&] { return std::make_unique<accel::FirewallMatcher>(blacklist); })
                : nullptr,
            to_firewall ? fw_prog.image : fw.image, 0, rng);
        total += t.total_ms;
        min_ms = std::min(min_ms, t.total_ms);
        max_ms = std::max(max_ms, t.total_ms);
        drain_total_us += t.drain_us;
    }
    mon.flush_epoch();

    std::printf("loads: %d\n", kLoads);
    std::printf("average pause+load+boot: %.1f ms (paper: 756 ms)\n", total / kLoads);
    std::printf("min/max: %.1f / %.1f ms\n", min_ms, max_ms);
    std::printf("average drain time: %.2f us (traffic keeps flowing meanwhile)\n",
                drain_total_us / kLoads);
    std::printf("packets forwarded during the campaign: %llu (no-pause reconfiguration)\n",
                (unsigned long long)(sys.sink(0).frames() + sys.sink(1).frames()));

    // Measured health verdicts for the campaign.
    const sim::Histogram& lat = mon.latency();
    uint64_t offered =
        mon.ingress_packets() + mon.dropped_at(net::Stage::kMacRxFifoDrop);
    double drop_rate =
        offered ? double(mon.dropped_packets()) / double(offered) : 0.0;
    std::printf("\nhealth during campaign (SLO \"%s\"):\n", hc.slo.text.c_str());
    std::printf("  latency p50/p99/p999: %.2f / %.2f / %.2f us over %llu packets\n",
                double(lat.percentile(0.50)) * sim::kNsPerCycle / 1e3,
                double(lat.percentile(0.99)) * sim::kNsPerCycle / 1e3,
                double(lat.percentile(0.999)) * sim::kNsPerCycle / 1e3,
                (unsigned long long)lat.count());
    std::printf("  drop rate: %.4f (%llu of %llu offered)\n", drop_rate,
                (unsigned long long)mon.dropped_packets(),
                (unsigned long long)offered);
    size_t failed = 0;
    for (const auto& v : mon.verdicts())
        if (!v.pass) ++failed;
    std::printf("  epochs: %llu, failed: %zu, watchdog trips: %llu -> SLO %s\n",
                (unsigned long long)mon.epochs_closed(), failed,
                (unsigned long long)mon.watchdog_trips(),
                mon.slo_ok() && mon.watchdog_trips() == 0 ? "MET" : "VIOLATED");

    bench::JsonResults json("sec41_reconfig");
    json.row({{"loads", std::to_string(kLoads)},
              {"avg_ms", bench::num(total / kLoads)},
              {"min_ms", bench::num(min_ms)},
              {"max_ms", bench::num(max_ms)},
              {"avg_drain_us", bench::num(drain_total_us / kLoads)},
              {"latency_p99_us",
               bench::num(double(lat.percentile(0.99)) * sim::kNsPerCycle / 1e3)},
              {"drop_rate", bench::num(drop_rate)},
              {"epochs", std::to_string(mon.epochs_closed())},
              {"epochs_failed", std::to_string(failed)},
              {"watchdog_trips", std::to_string(mon.watchdog_trips())},
              {"slo", mon.slo_ok() ? "pass" : "fail"}});
    for (const auto& v : mon.verdicts()) {
        json.row({{"epoch_start", std::to_string(v.start)},
                  {"epoch_end", std::to_string(v.end)},
                  {"offered", std::to_string(v.offered)},
                  {"egress", std::to_string(v.egress)},
                  {"drops", std::to_string(v.drops)},
                  {"p99_cycles", std::to_string(v.p99)},
                  {"drop_rate", bench::num(v.drop_rate)},
                  {"pass", v.pass ? "1" : "0"}});
    }
    mon.detach();
    return 0;
}
