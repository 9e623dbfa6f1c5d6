/// Observability-stack tests: JSON escaping, the VCD writer's header/format,
/// the Perfetto exporter's structure, the telemetry cycle-classification
/// invariant (busy+stalled+starved+idle == observed cycles on every net),
/// telemetry taps counting on their own nets (drained-run event counts
/// equal to the components' own counters),
/// telemetry occupancy equal to the kernel's occupancy probes on every
/// cycle, the firmware PC profiler's conservation property, flight-recorder
/// retention of packet timelines, and the guarantee that attaching
/// telemetry leaves the architectural state fingerprint untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "net/tracegen.h"
#include "obs/harness.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/vcd.h"
#include "sim/stats.h"

namespace rosebud {
namespace {

// ------------------------------------------------------------------- json

TEST(JsonWriter, EscapesAndNests) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("s").value("a\"b\\c\nd");
    w.key("arr").begin_array().value(uint64_t(1)).value(uint64_t(2)).end_array();
    w.key("t").value(true);
    w.end_object();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2],\"t\":true}");
}

// -------------------------------------------------------------------- vcd

TEST(Vcd, HeaderTimescaleAndChangeStream) {
    obs::VcdWriter v;
    int a = v.add_signal("top.u0.valid", 1);
    int b = v.add_signal("top.u0.occ", 4);
    v.change(0, a, 0);
    v.change(0, b, 3);
    v.change(8, a, 1);
    v.change(8, a, 1);   // duplicate: must be dropped
    v.change(12, b, 5);

    std::string out = v.str();
    // Golden structural skeleton (GTKWave requirements).
    EXPECT_NE(out.find("$timescale 1 ns $end"), std::string::npos);
    EXPECT_NE(out.find("$scope module top $end"), std::string::npos);
    EXPECT_NE(out.find("$scope module u0 $end"), std::string::npos);
    EXPECT_NE(out.find("$var wire 1 ! valid $end"), std::string::npos);
    EXPECT_NE(out.find("$var wire 4 \" occ [3:0] $end"), std::string::npos);
    EXPECT_NE(out.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(out.find("$dumpvars"), std::string::npos);
    EXPECT_NE(out.find("#0\n"), std::string::npos);
    EXPECT_NE(out.find("#8\n"), std::string::npos);
    EXPECT_NE(out.find("#12\n"), std::string::npos);
    EXPECT_NE(out.find("b0011 \""), std::string::npos);
    EXPECT_NE(out.find("b0101 \""), std::string::npos);
    // The duplicate a=1 at t=8 collapses to a single change.
    size_t first = out.find("1!");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(out.find("1!", first + 1), std::string::npos);
    // Header before definitions before dump.
    EXPECT_LT(out.find("$timescale"), out.find("$enddefinitions"));
    EXPECT_LT(out.find("$enddefinitions"), out.find("$dumpvars"));
}

// ------------------------------------------- telemetry classification law

net::PacketPtr
make_packet(uint32_t size, uint64_t id) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(1000, 2000).frame_size(size);
    auto p = b.build();
    p->id = id;
    return p;
}

TEST(Telemetry, EveryNetSumsExactlyToObservedCycles) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();

    obs::Telemetry telem;
    telem.attach(sys);

    sys.run_cycles(300);
    for (int i = 0; i < 20; ++i) sys.fabric().mac_rx(0, make_packet(256, 100 + i));
    sys.run_cycles(3000);

    EXPECT_EQ(telem.cycles_observed(), 3300u);
    ASSERT_FALSE(telem.nets().empty());
    uint64_t total_busy = 0;
    for (const auto& [name, ns] : telem.nets()) {
        EXPECT_EQ(ns.busy + ns.stalled + ns.starved + ns.idle, telem.cycles_observed())
            << "net " << name;
        total_busy += ns.busy;
    }
    EXPECT_GT(total_busy, 0u);  // the run did move data
    telem.detach();
}

// ------------------------------------ taps land on their own net
//
// A tap that reported on a wrong net would still conserve cycles, so the
// test above cannot see it. On a drained run each tapped net's event count
// equals a counter the component keeps for itself.

/// Run `sys` until both sinks hold `frames` frames between them; false if
/// they never do.
bool
drain_to_sinks(System& sys, uint64_t frames) {
    const bool done = sys.kernel().run_until(
        [&] { return sys.sink(0).frames() + sys.sink(1).frames() == frames; }, 500'000);
    sys.run_cycles(100);
    return done;
}

TEST(Telemetry, ForwarderTapsCountOnTheirOwnNets) {
    constexpr unsigned kRpus = 8;
    constexpr uint64_t kPerPort = 3000;
    SystemConfig cfg;
    cfg.rpu_count = kRpus;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    obs::Telemetry telem;
    telem.attach(sys);
    uint64_t id = 0;
    for (unsigned port = 0; port < 2; ++port) {
        sys.add_source({.port = port, .max_packets = kPerPort},
                       [&id] { return make_packet(256, id++); });
    }
    ASSERT_TRUE(drain_to_sinks(sys, 2 * kPerPort));

    const sim::Stats& st = sys.stats();
    const auto& nets = telem.nets();
    for (unsigned r = 0; r < kRpus; ++r) {
        const std::string rn = "rpu" + std::to_string(r);
        const uint64_t rx = st.get(rn + ".rx_packets");
        EXPECT_GT(rx, 0u) << rn;
        EXPECT_EQ(nets.at("fabric.egress.r" + std::to_string(r)).pushes,
                  st.get(rn + ".tx_packets"))
            << rn;
        EXPECT_EQ(nets.at(rn + ".link_in").pushes, rx) << rn;
        uint64_t voq_pops = 0;
        for (unsigned s = 0; s < 4; ++s) {
            voq_pops += nets.at("fabric.voq.r" + std::to_string(r) + ".s" + std::to_string(s))
                            .pops;
        }
        EXPECT_EQ(voq_pops, rx) << rn;
    }
    EXPECT_EQ(nets.at("lb.assign").pushes, st.get("lb.assigned"));
    for (unsigned p = 0; p < 2; ++p) {
        const std::string pn = std::to_string(p);
        EXPECT_EQ(nets.at("fabric.mac_tx.p" + pn).pops, st.get("port" + pn + ".tx_frames"));
        EXPECT_EQ(nets.at("fabric.mac_rx.p" + pn).pushes, st.get("port" + pn + ".rx_frames"));
    }
    EXPECT_EQ(st.get("port0.rx_frames") + st.get("port1.rx_frames"), 2 * kPerPort);
    telem.detach();
}

TEST(Telemetry, LoopbackTapCountsLoopbackFrames) {
    // The two-step forwarder: the first half of the RPUs receive and send
    // each packet over the loopback channel to a partner, which forwards
    // it out.
    constexpr unsigned kRpus = 8;
    constexpr uint64_t kPackets = 2000;
    SystemConfig cfg;
    cfg.rpu_count = kRpus;
    System sys(cfg);
    auto fw = fwlib::two_step_forwarder(kRpus);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    sys.host().set_recv_mask((1u << (kRpus / 2)) - 1);
    obs::Telemetry telem;
    telem.attach(sys);
    uint64_t id = 0;
    sys.add_source({.port = 0, .max_packets = kPackets},
                   [&id] { return make_packet(512, id++); });
    ASSERT_TRUE(drain_to_sinks(sys, kPackets));

    EXPECT_EQ(sys.stats().get("loopback.frames"), kPackets);
    EXPECT_EQ(telem.nets().at("fabric.loopback_q").pushes, sys.stats().get("loopback.frames"));
    telem.detach();
}

TEST(Telemetry, StallReportRanksAndPreservesSums) {
    obs::ProfileSpec s;
    s.build.pipeline = Pipeline::kFirewall;
    s.build.system.rpu_count = 4;
    s.run_cycles = 8000;
    s.capture_vcd = false;
    auto r = obs::run_profile(s);
    ASSERT_FALSE(r.stalls.links.empty());
    for (const auto& l : r.stalls.links) {
        EXPECT_EQ(l.busy + l.stalled + l.starved + l.idle, r.stalls.cycles)
            << "net " << l.net;
    }
    // Ranking: non-increasing stalled counts.
    for (size_t i = 1; i < r.stalls.links.size(); ++i) {
        EXPECT_GE(r.stalls.links[i - 1].stalled, r.stalls.links[i].stalled);
    }
    std::string text = obs::format_stall_report(r.stalls, 5);
    EXPECT_NE(text.find("component rollup"), std::string::npos);
}

// ------------------------------------ occupancy comes from the probes

TEST(Telemetry, OccupancyMatchesProbesEveryCycle) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    // Both ports at 64 B line rate: four RPUs cannot keep up, so the
    // fabric queues and the RPU descriptor FIFOs back up.
    uint64_t id = 0;
    for (unsigned port = 0; port < 2; ++port) {
        sys.add_source({.port = port}, [&id] { return make_packet(64, id++); });
    }
    obs::Telemetry telem;
    telem.attach(sys);

    std::map<std::string, const sim::Kernel::OccupancyProbe*> probes;
    for (const auto& p : sys.kernel().occupancy_probes()) probes[p.net] = &p;
    std::map<std::string, size_t> peak;
    for (int cycle = 0; cycle < 2000; ++cycle) {
        sys.run_cycles(1);
        for (const auto& [name, ns] : telem.nets()) {
            auto it = probes.find(name);
            // A net without a probe (an abstract link) holds nothing.
            const size_t occ = it == probes.end() ? 0 : it->second->fn();
            size_t& p = peak[name];
            p = std::max(p, occ);
            ASSERT_EQ(ns.occ, occ) << name << " @" << cycle;
            ASSERT_EQ(ns.peak_occ, p) << name << " @" << cycle;
        }
    }
    // Not vacuous: an abstract fabric queue and a sim::Fifo both backed up.
    EXPECT_GT(telem.nets().at("fabric.mac_rx.p0").peak_occ, 0u);
    EXPECT_GT(telem.nets().at("rpu0.rx_fifo").peak_occ, 0u);
    // rpuN.slots is a probe but not a net, so it gains no row.
    for (unsigned r = 0; r < cfg.rpu_count; ++r) {
        const std::string slots = "rpu" + std::to_string(r) + ".slots";
        EXPECT_EQ(probes.count(slots), 1u);
        EXPECT_EQ(telem.nets().count(slots), 0u);
    }
    telem.detach();
}

// ------------------------------------------------------------ pc profiler

TEST(PcProfiler, HistogramSumsToProfiledCycles) {
    obs::ProfileSpec s;
    s.build.pipeline = Pipeline::kForwarder;
    s.build.system.rpu_count = 4;
    s.run_cycles = 5000;
    s.capture_vcd = false;
    auto r = obs::run_profile(s);
    ASSERT_EQ(r.cores.size(), 4u);
    uint64_t agg = 0;
    for (const auto& c : r.cores) {
        uint64_t sum = 0;
        for (const auto& [pc, cy] : c.pc_cycles) sum += cy;
        EXPECT_EQ(sum, c.cycles) << c.name;
        EXPECT_GT(c.cycles, 0u) << c.name;
        agg += sum;
    }
    uint64_t agg_sum = 0;
    for (const auto& [pc, cy] : r.aggregate.pc_cycles) agg_sum += cy;
    EXPECT_EQ(agg_sum, r.aggregate.cycles);
    EXPECT_EQ(agg_sum, agg);

    // The annotated listing mentions the firmware's poll loop.
    std::string ann = obs::annotate(r.firmware.image, r.aggregate);
    EXPECT_NE(ann.find("cycles attributed"), std::string::npos);
}

// --------------------------------------------------------------- perfetto

TEST(Perfetto, EmitsStructurallyValidTrace) {
    obs::ProfileSpec s;
    s.build.pipeline = Pipeline::kForwarder;
    s.build.system.rpu_count = 4;
    s.traffic.max_packets = 20;
    s.run_cycles = 5000;
    s.capture_vcd = false;
    auto r = obs::run_profile(s);
    // The traffic shape reaches the generator: exactly the capped packets
    // come back, and each one's lifecycle ends in one instant marker.
    EXPECT_EQ(r.rx_frames, 20u);
    const std::string& t = r.trace;
    size_t instants = 0;
    for (size_t at = t.find("\"ph\":\"i\""); at != std::string::npos;
         at = t.find("\"ph\":\"i\"", at + 1))
        ++instants;
    EXPECT_EQ(instants, 20u);
    ASSERT_FALSE(t.empty());
    EXPECT_EQ(t.front(), '{');
    EXPECT_EQ(t.back(), '}');
    EXPECT_NE(t.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"b\""), std::string::npos);  // async span begin
    EXPECT_NE(t.find("\"ph\":\"e\""), std::string::npos);  // async span end
    EXPECT_NE(t.find("\"ph\":\"M\""), std::string::npos);  // process metadata
    EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);  // counter track
    EXPECT_NE(t.find("process_name"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check; quotes in the
    // payload are escaped so raw counting is sound).
    long braces = 0, brackets = 0;
    for (char c : t) {
        if (c == '{') ++braces;
        if (c == '}') --braces;
        if (c == '[') ++brackets;
        if (c == ']') --brackets;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// ----------------------------------------------------------- vcd capture

TEST(Telemetry, VcdCaptureContainsSystemNets) {
    obs::ProfileSpec s;
    s.build.pipeline = Pipeline::kForwarder;
    s.build.system.rpu_count = 4;
    s.run_cycles = 3000;
    s.capture_vcd = true;
    auto r = obs::run_profile(s);
    ASSERT_FALSE(r.vcd.empty());
    EXPECT_NE(r.vcd.find("$timescale 1 ns $end"), std::string::npos);
    EXPECT_NE(r.vcd.find("$scope module fabric $end"), std::string::npos);
    EXPECT_NE(r.vcd.find("$scope module rpu0 $end"), std::string::npos);
    EXPECT_NE(r.vcd.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(r.vcd.find("$dumpvars"), std::string::npos);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, RetentionCapEvictsOldest) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    // A forwarded packet crosses seven stages, so 56 events hold about
    // eight packets' timelines.
    obs::FlightRecorder rec(56);
    rec.attach(sys);
    for (int i = 0; i < 32; ++i) {
        sys.fabric().mac_rx(0, make_packet(128, uint64_t(1000 + i)));
        sys.run_cycles(400);
    }
    EXPECT_EQ(rec.recorded(), 32u * 7);
    EXPECT_EQ(rec.timelines().size(), 8u);
    EXPECT_GT(rec.overwritten(), 0u);
    // The newest ids survive, the oldest were evicted.
    EXPECT_TRUE(rec.timeline(1000).empty());
    EXPECT_FALSE(rec.timeline(1031).empty());
}

// -------------------------------------- zero-overhead / determinism guard

TEST(Telemetry, AttachingDoesNotChangeStateFingerprint) {
    auto run = [](bool with_telemetry) {
        SystemConfig cfg;
        cfg.rpu_count = 4;
        System sys(cfg);
        auto fw = fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        obs::Telemetry telem;
        if (with_telemetry) telem.attach(sys);
        sys.run_cycles(300);
        for (int i = 0; i < 16; ++i) sys.fabric().mac_rx(0, make_packet(200, 50 + i));
        sys.run_cycles(4000);
        uint64_t fp = sys.state_fingerprint();
        if (with_telemetry) telem.detach();
        return fp;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Telemetry, ShuffleDeterminismHoldsWithTelemetryAttached) {
    auto run = [](uint64_t shuffle_seed) {
        SystemConfig cfg;
        cfg.rpu_count = 4;
        System sys(cfg);
        if (shuffle_seed) sys.kernel().shuffle_tick_order(shuffle_seed);
        auto fw = fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        obs::Telemetry telem;
        telem.attach(sys);
        sys.run_cycles(300);
        for (int i = 0; i < 16; ++i) sys.fabric().mac_rx(0, make_packet(200, 50 + i));
        sys.run_cycles(4000);
        uint64_t fp = sys.state_fingerprint();
        // The telemetry's own classification must also be order-independent.
        uint64_t busy = 0, stalled = 0;
        for (const auto& [_, ns] : telem.nets()) {
            busy += ns.busy;
            stalled += ns.stalled;
        }
        telem.detach();
        return std::tuple<uint64_t, uint64_t, uint64_t>(fp, busy, stalled);
    };
    EXPECT_EQ(run(0), run(0xdeadbeef));
}

}  // namespace
}  // namespace rosebud
