/// Ablation studies of the design choices DESIGN.md calls out: each sweep
/// varies one structural parameter of the framework and reports its effect
/// on a headline result, showing *why* the paper's numbers look the way
/// they do.
///
///  1. RPU ingress DMA setup gap       -> the Figure 7b (8-RPU) shape;
///  2. per-RPU link width              -> Equation 1's 2/32 latency term;
///  3. packet slot count               -> pipelining depth vs throughput;
///  4. broadcast TX FIFO depth         -> the saturated-latency structure;
///  5. LB policy                       -> forwarding under skewed traffic.

#include <memory>

#include "bench_common.h"
#include "core/experiments.h"
#include "firmware/programs.h"
#include "net/tracegen.h"

using namespace rosebud;

namespace {

/// Forwarding fraction-of-line at one point with a custom system tweak.
double
forwarding_fraction(unsigned rpus, uint32_t size,
                    const std::function<void(SystemConfig&)>& tweak,
                    fwlib::SlotParams slots = {}) {
    SystemConfig cfg;
    cfg.rpu_count = rpus;
    tweak(cfg);
    System sys(cfg);
    auto fw = fwlib::forwarder(slots);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(1, 2).frame_size(size);
    auto proto = b.build();
    for (unsigned port = 0; port < 2; ++port) {
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 1.0},
                       [proto] { return std::make_shared<net::Packet>(*proto); });
    }
    sys.run_cycles(25000);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(60000);
    double secs = 60000.0 / sim::kClockHz;
    double gbps =
        double(sys.sink(0).window_bytes() + sys.sink(1).window_bytes()) * 8 / secs / 1e9;
    return gbps / net::line_rate_goodput_gbps(size, 200.0);
}

}  // namespace

int
main() {
    bench::heading("Ablation 1: RPU ingress DMA setup gap (8 RPUs, 512 B @ 200G)");
    std::printf("The non-overlapped per-packet DMA overhead is what keeps the 8-RPU\n"
                "layout from line rate below ~1 KB (Figure 7b). Default: 11 cycles.\n");
    std::printf("%12s %16s\n", "gap(cycles)", "frac of line");
    for (unsigned gap : {0u, 4u, 8u, 11u, 16u, 24u}) {
        double frac = forwarding_fraction(
            8, 512, [gap](SystemConfig& c) { c.rpu_template.ingress_gap_cycles = gap; });
        std::printf("%12u %15.1f%%\n", gap, 100.0 * frac);
    }

    bench::heading("Ablation 2: per-RPU link width (16 RPUs, latency at 1024 B)");
    std::printf("Equation 1's 2/32 term comes from the 128-bit (16 B/cycle) links;\n"
                "wider links trade fabric resources for latency. Rows off the\n"
                "paper's 16 B/cycle bus run with the lint downgraded to a warning\n"
                "and name the rule they break.\n");
    std::printf("%14s %14s %14s  %s\n", "width(B/cyc)", "latency(us)", "eq1-slope(ns/B)",
                "lint");
    for (uint32_t width : {8u, 16u, 32u, 64u}) {
        SystemConfig cfg;
        cfg.rpu_count = 16;
        cfg.rpu_template.link_bytes_per_cycle = width;
        cfg.lint = width == 16 ? LintMode::kEnforce : LintMode::kWarn;
        System sys(cfg);
        std::string broken;
        for (const lint::Violation& v : sys.lint_check()) {
            const std::string rule = lint::check_name(v.check);
            if (broken.find(rule) == std::string::npos)
                broken += (broken.empty() ? "" : ",") + rule;
        }
        auto fw = fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(500);
        net::PacketBuilder b;
        b.ipv4(1, 2).udp(1, 2).frame_size(1024);
        auto proto = b.build();
        sys.add_source({.port = 0, .load = 0.03},
                       [proto] { return std::make_shared<net::Packet>(*proto); });
        sys.run_cycles(30000);
        sys.sink(1).start_window();
        sys.run_cycles(120000);
        double us = sys.sink(1).latency().mean() / 1e6;
        double slope = 8.0 * (2.0 / 100.0 + 2.0 / (width * 2.0));
        std::printf("%14u %14.3f %14.2f  %s\n", width, us, slope,
                    broken.empty() ? "clean" : broken.c_str());
    }

    bench::heading("Ablation 3: packet slot count (16 RPUs, 64 B @ 200G)");
    std::printf("Slots bound how many packets pipeline inside each RPU; too few\n"
                "starve the 16-cycle forwarder loop. Paper default: 32.\n");
    std::printf("%8s %16s\n", "slots", "rate(Mpps)");
    for (uint32_t slots : {2u, 4u, 8u, 16u, 32u}) {
        double frac = forwarding_fraction(
            16, 64, [](SystemConfig&) {}, fwlib::SlotParams{slots, 16 * 1024});
        std::printf("%8u %16.1f\n", slots,
                    frac * net::line_rate_pps(64, 200.0) / 1e6);
    }

    bench::heading("Ablation 4: broadcast TX FIFO depth (16 RPUs, saturated)");
    std::printf("Saturated latency is queueing: depth x ~16-cycle grant period\n"
                "(paper: 18 slots = 16 FIFO + 2 PR registers -> 1596-1680 ns).\n");
    std::printf("%8s %22s\n", "depth", "saturated latency(ns)");
    for (unsigned depth : {8u, 18u, 32u}) {
        SystemConfig cfg;
        cfg.rpu_count = 16;
        cfg.broadcast.tx_fifo_depth = depth;
        System sys(cfg);
        auto stress = fwlib::broadcast_sender(0);
        sys.host().load_firmware_all(stress.image, stress.entry);
        sim::Cycle boot = sys.kernel().now();
        sys.host().boot_all();
        sim::Histogram lat;  // ns
        sys.broadcast().set_delivery_probe([&](uint32_t, uint32_t v, sim::Cycle now) {
            if (now > boot + 20000) lat.record(uint64_t(sim::cycles_to_ns(now - boot - v)));
        });
        sys.run_cycles(80000);
        std::printf("%8u %12.0f..%-8.0f\n", depth, double(lat.min()), double(lat.max()));
    }

    bench::heading("Ablation 5: LB policy under skewed flows (16 RPUs, 512 B @ 200G)");
    std::printf("%14s %16s\n", "policy", "frac of line");
    for (auto [name, policy] :
         {std::pair{"round-robin", lb::Policy::kRoundRobin},
          std::pair{"least-loaded", lb::Policy::kLeastLoaded},
          std::pair{"flow-hash", lb::Policy::kHash}}) {
        SystemConfig cfg;
        cfg.rpu_count = 16;
        cfg.lb_policy = policy;
        System sys(cfg);
        auto fw = fwlib::forwarder({}, policy == lb::Policy::kHash);
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(500);
        // Skewed workload: 16 flows, so the hash policy suffers collisions.
        for (unsigned port = 0; port < 2; ++port) {
            net::TrafficSpec spec;
            spec.packet_size = 512;
            spec.flow_count = 16;
            spec.seed = port + 1;
            auto gen = std::make_shared<net::TraceGenerator>(spec);
            sys.add_source({.port = port, .load = 1.0}, [gen] { return gen->next(); });
        }
        sys.run_cycles(25000);
        sys.sink(0).start_window();
        sys.sink(1).start_window();
        sys.run_cycles(60000);
        double secs = 60000.0 / sim::kClockHz;
        double gbps = double(sys.sink(0).window_bytes() + sys.sink(1).window_bytes()) *
                      8 / secs / 1e9;
        std::printf("%14s %15.1f%%\n", name,
                    100.0 * gbps / net::line_rate_goodput_gbps(512, 200.0));
    }
    std::printf("(Flow-hash pays for affinity under few flows — the \"non-perfect\n"
                "load balancing\" the paper observes in the SW-reorder results.)\n");
    return 0;
}
