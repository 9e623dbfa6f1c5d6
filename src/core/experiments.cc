#include "core/experiments.h"

#include <memory>

#include "core/pipeline.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "sim/log.h"

namespace rosebud::exp {

namespace {

/// Generator that clones a prototype frame (cheap fixed-size traffic).
dist::TrafficSource::GenFn
fixed_size_gen(uint32_t size, uint64_t seed) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001 + uint32_t(seed), 0x0a000002)
        .udp(uint16_t(1024 + seed), 2000)
        .frame_size(size);
    net::PacketPtr proto = b.build();
    auto next_id = std::make_shared<uint64_t>(seed << 32);
    return [proto, next_id]() {
        auto p = std::make_shared<net::Packet>(*proto);
        p->id = (*next_id)++;
        return p;
    };
}

uint64_t
rpu_counter_sum(System& sys, const char* suffix) {
    uint64_t total = 0;
    for (unsigned i = 0; i < sys.rpu_count(); ++i) {
        total += sys.stats().get("rpu" + std::to_string(i) + "." + suffix);
    }
    return total;
}

/// Boot `spec` and let the cores settle before any traffic exists.
PipelineFixture
boot_settled(const PipelineSpec& spec) {
    PipelineFixture fx = build_pipeline(spec);
    fx.system().run_cycles(500);
    return fx;
}

/// Figure 7's set-up, shared by the throughput and latency harnesses: the
/// forwarder on every RPU, fixed-size frames on `p.ports` ports, warm-up,
/// then one measurement window on both sinks.
PipelineFixture
forward_window(const ForwardingParams& p) {
    PipelineSpec spec;
    spec.system.rpu_count = p.rpu_count;
    spec.system.tuning = p.tuning;
    PipelineFixture fx = boot_settled(spec);
    System& sys = fx.system();
    for (unsigned port = 0; port < p.ports; ++port) {
        sys.add_source({.port = port, .line_gbps = 100.0, .load = p.load},
                       fixed_size_gen(p.size, port + 1));
    }
    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(p.window);
    return fx;
}

/// The Pigasus case study's pipeline: HW reorder = reassembler in the LB
/// with round-robin (pigasus2), SW reorder = hash LB + firmware flow table.
PipelineSpec
ips_spec(IpsMode mode, unsigned rpu_count, uint64_t seed, unsigned rule_count) {
    const bool hw = mode == IpsMode::kHwReorder;
    PipelineSpec spec;
    spec.pipeline = hw ? Pipeline::kPigasusHwReorder : Pipeline::kPigasusSwReorder;
    spec.system.rpu_count = rpu_count;
    spec.system.lb_policy = hw ? lb::Policy::kRoundRobin : lb::Policy::kHash;
    spec.system.hw_reassembler = hw;
    spec.seed = seed;
    spec.rule_count = rule_count;
    return spec;
}

/// The case studies' tester: both ports at line rate from TraceGenerators
/// over the fixture's tables, port n seeded `seed + n + 1`. Returns the
/// running count of ground-truth attacks offered.
std::shared_ptr<uint64_t>
add_trace_sources(PipelineFixture& fx, net::TrafficSpec spec, uint64_t seed) {
    auto attacks_offered = std::make_shared<uint64_t>(0);
    for (unsigned port = 0; port < 2; ++port) {
        spec.seed = seed + port + 1;
        auto gen = std::make_shared<net::TraceGenerator>(spec, fx.rules.get(),
                                                         fx.blacklist.get());
        fx.system().add_source({.port = port, .line_gbps = 100.0, .load = 1.0},
                               [gen, attacks_offered]() {
                                   auto pkt = gen->next();
                                   if (pkt->is_attack) ++*attacks_offered;
                                   return pkt;
                               });
    }
    return attacks_offered;
}

}  // namespace

std::vector<uint32_t>
figure7_sizes() {
    return {64, 65, 128, 256, 512, 1024, 1500, 2048, 4096, 8192, 9000};
}

ForwardingPoint
run_forwarding(const ForwardingParams& p) {
    PipelineFixture fx = forward_window(p);
    System& sys = fx.system();

    ForwardingPoint out;
    out.size = p.size;
    out.rpu_count = p.rpu_count;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t frames = sys.sink(0).window_frames() + sys.sink(1).window_frames();
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.achieved_mpps = double(frames) / secs / 1e6;
    double total_line = 100.0 * p.ports;
    out.offered_gbps = net::line_rate_goodput_gbps(p.size, total_line) * p.load;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, total_line);
    out.line_mpps = net::line_rate_pps(p.size, total_line) / 1e6;
    return out;
}

double
eq1_latency_us(uint32_t size, double fixed_us) {
    return double(size) * 8.0 * (2.0 / 100.0 + 2.0 / 32.0) / 1000.0 + fixed_us;
}

LatencyPoint
run_latency(const LatencyParams& p) {
    PipelineFixture fx = forward_window({.rpu_count = p.rpu_count,
                                         .size = p.size,
                                         .ports = 2,
                                         .load = p.load,
                                         .warmup = p.warmup,
                                         .window = p.window});
    System& sys = fx.system();

    LatencyPoint out;
    out.size = p.size;
    sim::Histogram all = sys.sink(0).latency();  // picoseconds
    all.merge(sys.sink(1).latency());
    out.mean_us = all.mean() / 1e6;
    out.min_us = double(all.min()) / 1e6;
    out.max_us = double(all.max()) / 1e6;
    out.p99_us = double(all.percentile(0.99)) / 1e6;
    out.eq1_us = eq1_latency_us(p.size);
    return out;
}

LoopbackPoint
run_loopback(unsigned rpu_count, uint32_t size, sim::Cycle warmup, sim::Cycle window) {
    SystemConfig cfg;
    cfg.rpu_count = rpu_count;
    System sys(cfg);
    auto fw = fwlib::two_step_forwarder(rpu_count);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    // Only the first half of the RPUs receives incoming traffic.
    sys.host().set_recv_mask((1u << (rpu_count / 2)) - 1);

    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0}, fixed_size_gen(size, 1));

    sys.run_cycles(warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(window);

    LoopbackPoint out;
    out.size = size;
    double secs = double(window) / sim::kClockHz;
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.line_gbps = net::line_rate_goodput_gbps(size, 100.0);
    out.fraction_of_line = out.achieved_gbps / out.line_gbps;
    return out;
}

namespace {

/// Shared measurement body: the messages carry the sender's cycle counter
/// (== kernel cycles since boot), and the delivery probe computes
/// send-timestamp-to-simultaneous-arrival latency — the same semantics as
/// the paper's "compare the current time against the transmit time".
void
measure_broadcast(unsigned rpu_count, sim::Cycle window, const fwlib::Program& fw,
                  bool all_send, double& min_ns, double& max_ns, double& mean_ns,
                  uint64_t& messages) {
    SystemConfig cfg;
    cfg.rpu_count = rpu_count;
    System sys(cfg);
    if (all_send) {
        sys.host().load_firmware_all(fw.image, fw.entry);
    } else {
        auto sink = fwlib::broadcast_sink();
        sys.host().load_firmware(0, fw.image, fw.entry);
        for (unsigned i = 1; i < rpu_count; ++i) {
            sys.host().load_firmware(i, sink.image, sink.entry);
        }
    }
    sim::Cycle boot_cycle = sys.kernel().now();
    sys.host().boot_all();

    sim::Histogram lat;  // ns
    sim::Cycle measure_from = boot_cycle + window / 4;  // skip warm-up
    sys.broadcast().set_delivery_probe(
        [&](uint32_t /*offset*/, uint32_t value, sim::Cycle now) {
            if (now < measure_from) return;
            lat.record(uint64_t(sim::cycles_to_ns(now - boot_cycle - value)));
        });
    sys.run_cycles(window);

    min_ns = double(lat.min());
    max_ns = double(lat.max());
    mean_ns = lat.mean();
    messages = lat.count();
}

}  // namespace

BroadcastResult
run_broadcast(unsigned rpu_count, sim::Cycle window) {
    BroadcastResult out;
    uint64_t n_sparse = 0;
    measure_broadcast(rpu_count, window, fwlib::broadcast_sender(2000), /*all_send=*/false,
                      out.sparse_min_ns, out.sparse_max_ns, out.sparse_mean_ns, n_sparse);
    measure_broadcast(rpu_count, window, fwlib::broadcast_sender(0), /*all_send=*/true,
                      out.saturated_min_ns, out.saturated_max_ns, out.saturated_mean_ns,
                      out.messages);
    out.messages += n_sparse;
    return out;
}

IpsPoint
run_ips(const IpsParams& p) {
    PipelineFixture fx =
        boot_settled(ips_spec(p.mode, p.rpu_count, p.seed, p.rule_count));
    System& sys = fx.system();

    // Host receive path: matched attack packets plus (in SW-reorder mode)
    // reorder-buffer punts; count them separately via the ground truth.
    auto host_frames = std::make_shared<uint64_t>(0);
    auto host_bytes = std::make_shared<uint64_t>(0);
    auto host_attacks = std::make_shared<uint64_t>(0);
    sys.host().set_rx_handler([host_frames, host_bytes, host_attacks](net::PacketPtr pkt) {
        ++*host_frames;
        *host_bytes += pkt->size();
        if (pkt->is_attack) ++*host_attacks;
    });

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack_fraction;
    spec.reorder_fraction = p.reorder_fraction;
    spec.udp_fraction = 0.05;
    auto attacks_offered = add_trace_sources(fx, spec, p.seed);

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    uint64_t attacks_at_start = *attacks_offered;
    uint64_t host_frames_at_start = *host_frames;
    uint64_t host_bytes_at_start = *host_bytes;
    uint64_t host_attacks_at_start = *host_attacks;
    sys.run_cycles(p.window);

    IpsPoint out;
    out.size = p.size;
    out.mode = p.mode;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t frames = sys.sink(0).window_frames() + sys.sink(1).window_frames() +
                      (*host_frames - host_frames_at_start);
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes() +
                     (*host_bytes - host_bytes_at_start);
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.achieved_mpps = double(frames) / secs / 1e6;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, 200.0);
    out.cycles_per_packet =
        frames ? double(p.rpu_count) * sim::kClockHz * secs / double(frames) : 0.0;
    out.matched_to_host = *host_attacks - host_attacks_at_start;
    out.punted_to_host =
        (*host_frames - host_frames_at_start) - (*host_attacks - host_attacks_at_start);
    out.expected_attacks = *attacks_offered - attacks_at_start;
    return out;
}

FirewallPoint
run_firewall(const FirewallParams& p) {
    PipelineSpec ps;
    ps.pipeline = Pipeline::kFirewall;
    ps.system.rpu_count = p.rpu_count;
    ps.seed = p.seed;
    ps.blacklist_count = p.blacklist_size;
    PipelineFixture fx = boot_settled(ps);
    System& sys = fx.system();

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack_fraction;
    spec.udp_fraction = 0.2;
    auto attacks_offered = add_trace_sources(fx, spec, p.seed);

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    uint64_t attacks_at_start = *attacks_offered;
    uint64_t drops_at_start = rpu_counter_sum(sys, "dropped_packets");
    sys.run_cycles(p.window);

    FirewallPoint out;
    out.size = p.size;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t fwd_bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.forwarded = sys.sink(0).window_frames() + sys.sink(1).window_frames();
    out.blocked = rpu_counter_sum(sys, "dropped_packets") - drops_at_start;
    out.expected_blocked = *attacks_offered - attacks_at_start;
    // Achieved = absorbed traffic (forwarded + blocked), as the paper reads
    // "RX bytes" on the DUT.
    out.achieved_gbps =
        (double(fwd_bytes) + double(out.blocked) * p.size) * 8.0 / secs / 1e9;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, 200.0);
    return out;
}

double
run_single_rpu_cycles_per_packet(const SingleRpuParams& p) {
    PipelineFixture fx = boot_settled(ips_spec(p.mode, 4, p.seed, p.rule_count));
    System& sys = fx.system();
    sys.host().set_recv_mask(1);  // single-RPU measurement
    sys.host().set_rx_handler([](net::PacketPtr) {});

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack ? 1.0 : 0.0;
    spec.udp_fraction = p.udp ? 1.0 : 0.0;
    spec.reorder_fraction = 0.0;
    spec.seed = p.seed;
    auto gen = std::make_shared<net::TraceGenerator>(spec, fx.rules.get());
    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0},
                   [gen] { return gen->next(); });

    sys.run_cycles(20'000);
    uint64_t before = sys.stats().get("rpu0.tx_packets") +
                      sys.stats().get("rpu0.dropped_packets");
    sim::Cycle window = 60'000;
    sys.run_cycles(window);
    uint64_t processed = sys.stats().get("rpu0.tx_packets") +
                         sys.stats().get("rpu0.dropped_packets") - before;
    if (processed == 0) return 0.0;
    return double(window) / double(processed);
}

}  // namespace rosebud::exp
