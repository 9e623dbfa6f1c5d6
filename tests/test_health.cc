/// Production health layer tests (DESIGN.md §14): flight-recorder ring
/// semantics, HDR histogram bucket math, the declarative SLO parser,
/// Prometheus metrics export, the attach-invariance guarantee
/// (bit-identical fingerprints with the monitor attached), SLO epoch
/// verdicts, latency timed for every egressed packet, the forward-progress
/// watchdog on an injected firmware stall, the mid-run metrics query, and
/// the exporter degenerate-input cases (zero-cycle runs, detach mid-run,
/// hostile net names).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/pipeline.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "obs/health.h"
#include "obs/perfetto.h"
#include "obs/telemetry.h"
#include "obs/vcd.h"
#include "sim/log.h"

namespace rosebud {
namespace {

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapsKeepingMostRecent) {
    obs::FlightRecorder fr(8);
    net::Packet pkt;
    pkt.data.resize(64);
    for (uint64_t i = 0; i < 20; ++i) {
        pkt.id = i;
        fr.record(net::Stage::kMacRx, /*cycle=*/100 + i, pkt);
    }
    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.capacity(), 8u);
    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.overwritten(), 12u);
    // Oldest-first iteration over the surviving window [12, 20).
    uint64_t expect = 12;
    fr.for_each([&](const obs::FlightEvent& e) {
        EXPECT_EQ(e.c, expect);
        EXPECT_EQ(e.cycle, 100 + expect);
        ++expect;
    });
    EXPECT_EQ(expect, 20u);
}

TEST(FlightRecorder, NotesInternAndBound) {
    obs::FlightRecorder fr(4096);
    fr.record_note(obs::FlightEventType::kFault, 7, "core trap mcause=2",
                   /*a=*/3);
    bool seen = false;
    fr.for_each([&](const obs::FlightEvent& e) {
        seen = true;
        EXPECT_EQ(e.type, obs::FlightEventType::kFault);
        EXPECT_EQ(fr.note(e.note), "core trap mcause=2");
    });
    EXPECT_TRUE(seen);
    // The note table is bounded: flooding it must not grow without limit,
    // and later notes still resolve to *something* printable.
    for (int i = 0; i < 5000; ++i)
        fr.record_note(obs::FlightEventType::kFault, 8, "note " + std::to_string(i));
    int32_t last_note = -1;
    fr.for_each([&](const obs::FlightEvent& e) { last_note = e.note; });
    EXPECT_GE(last_note, 0);
    EXPECT_FALSE(fr.note(last_note).empty());
}

TEST(FlightRecorder, DumpFormatsContainEvents) {
    obs::FlightRecorder fr(16);
    net::Packet pkt;
    pkt.data.resize(64);
    pkt.id = 1;
    pkt.out_iface = net::Iface::kPort1;
    fr.record(net::Stage::kMacRx, 10, pkt);
    fr.record(net::Stage::kMacTx, 42, pkt, /*latency=*/32);
    fr.record_note(obs::FlightEventType::kWatchdogTrip, 99, "egress silent");
    std::string json = fr.dump_json();
    std::string text = fr.dump_text();
    EXPECT_NE(json.find("\"events\""), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"mac_tx\""), std::string::npos);
    EXPECT_NE(json.find("egress silent"), std::string::npos);
    EXPECT_NE(text.find("mac_rx           port0 pkt=1 64B"), std::string::npos);
    EXPECT_NE(text.find("mac_tx           port1 pkt=1 64B latency=32c"), std::string::npos);
    EXPECT_NE(text.find("egress silent"), std::string::npos);
    fr.clear();
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.capacity(), 16u);
}

// ------------------------------------------------------------- histogram

TEST(Histogram, ExactBelowSubBucketRange) {
    sim::Histogram h;
    for (uint64_t v = 0; v < sim::Histogram::kSubBuckets; ++v) h.record(v);
    for (uint64_t v = 0; v < sim::Histogram::kSubBuckets; ++v)
        EXPECT_EQ(sim::Histogram::bucket_upper(sim::Histogram::bucket_index(v)), v);
    EXPECT_EQ(h.count(), uint64_t(sim::Histogram::kSubBuckets));
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), sim::Histogram::kSubBuckets - 1);
}

TEST(Histogram, BucketBoundsContainValueWithBoundedError) {
    for (uint64_t v : {1ull, 7ull, 8ull, 9ull, 100ull, 1000ull, 123456ull,
                       (1ull << 40) + 12345, ~0ull >> 1}) {
        unsigned idx = sim::Histogram::bucket_index(v);
        uint64_t upper = sim::Histogram::bucket_upper(idx);
        EXPECT_GE(upper, v) << "v=" << v;
        // HDR guarantee: the bucket upper bound overshoots by at most the
        // sub-bucket resolution (12.5% for kSubBits=3).
        EXPECT_LE(double(upper - v), double(v) * 0.125 + 1.0) << "v=" << v;
    }
}

TEST(Histogram, PercentilesNeverUnderstate) {
    sim::Histogram h;
    for (uint64_t i = 1; i <= 1000; ++i) h.record(i);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_GE(h.percentile(0.50), 500u);
    EXPECT_GE(h.percentile(0.99), 990u);
    EXPECT_LE(h.percentile(0.99), 1200u);  // within one bucket overshoot
    EXPECT_GE(h.percentile(1.0), 1000u);
}

TEST(Histogram, EmptyReadsZero) {
    sim::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    for (double p : {0.5, 0.99, -1.0, 2.0, std::nan("")}) EXPECT_EQ(h.percentile(p), 0u);
}

TEST(Histogram, PercentileClampsOutOfRange) {
    sim::Histogram h;
    for (uint64_t v : {1, 2, 3, 4}) h.record(v);  // exact unit buckets
    // Out-of-range p must clamp, not index out of bounds; NaN reads as 0.
    EXPECT_EQ(h.percentile(-0.5), 1u);
    EXPECT_EQ(h.percentile(1.5), 4u);
    EXPECT_EQ(h.percentile(17.0), 4u);
    EXPECT_EQ(h.percentile(std::nan("")), 1u);
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(1.0), 4u);
    EXPECT_EQ(h.percentile(0.5), 2u);
    EXPECT_EQ(h.mean(), 2.5);
}

TEST(Histogram, MergeAndClear) {
    sim::Histogram a, b;
    a.record(10, 5);
    b.record(1000, 3);
    a.merge(b);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_EQ(a.sum(), 10u * 5 + 1000u * 3);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.percentile(0.5), 0u);
}

// ------------------------------------------------------------ SLO parser

TEST(SloParser, ParsesClassesUnitsAndClauses) {
    obs::SloSpec s = obs::parse_slo(
        "latency_p99 <= 200us; drop_rate <= 5%, tcp: latency_p999 <= 1ms");
    ASSERT_EQ(s.bounds.size(), 3u);

    EXPECT_EQ(s.bounds[0].kind, obs::SloBound::Kind::kLatencyP99);
    EXPECT_FALSE(s.bounds[0].cls.has_value());  // all traffic
    EXPECT_NEAR(s.bounds[0].limit, 200e3 / sim::kNsPerCycle, 1e-6);

    EXPECT_EQ(s.bounds[1].kind, obs::SloBound::Kind::kDropRate);
    EXPECT_NEAR(s.bounds[1].limit, 0.05, 1e-12);

    EXPECT_EQ(s.bounds[2].cls, net::FlowClass::kTcp);
    EXPECT_EQ(s.bounds[2].kind, obs::SloBound::Kind::kLatencyP999);
    EXPECT_NEAR(s.bounds[2].limit, 1e6 / sim::kNsPerCycle, 1e-6);

    EXPECT_TRUE(obs::parse_slo("").empty());
    EXPECT_TRUE(obs::parse_slo("   ").empty());
    // Canonical rendering mentions the class and metric.
    std::string txt = obs::slo_bound_text(s.bounds[2]);
    EXPECT_NE(txt.find("tcp"), std::string::npos);
    EXPECT_NE(txt.find("latency_p999"), std::string::npos);
}

TEST(SloParser, RejectsMalformedSpecs) {
    EXPECT_THROW(obs::parse_slo("latency_p99 >= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("bogus_metric <= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("latency_p99 <= abc"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("martian: latency_p99 <= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("latency_p99 <= 10 parsecs"), sim::FatalError);
}

// -------------------------------------------------------------- metrics

TEST(Metrics, PrometheusNamesAndLabelsAreSanitized) {
    EXPECT_EQ(obs::prom_name("fabric.mac_rx.p0"), "fabric_mac_rx_p0");
    EXPECT_EQ(obs::prom_name("9lives"), "_9lives");
    std::string esc = obs::prom_label_value("a\"b\\c\nd");
    EXPECT_EQ(esc.find('\n'), std::string::npos);
    EXPECT_NE(esc.find("\\\""), std::string::npos);
    EXPECT_NE(esc.find("\\\\"), std::string::npos);
}

TEST(Metrics, RegistryExportsPrometheus) {
    obs::MetricsRegistry reg;
    uint64_t hits = 7;
    reg.add_counter("demo_hits_total", "demo hits", "", [&] { return hits; });
    reg.add_gauge("demo_depth", "queue depth", "net=\"rx\"", [&] { return 3ull; });
    sim::Histogram h;
    h.record(4);
    h.record(100);
    reg.add_histogram("demo_latency_seconds", "latency", "", &h, 1e-6);

    std::string prom = reg.prometheus_text();
    EXPECT_NE(prom.find("# TYPE demo_hits_total counter"), std::string::npos);
    EXPECT_NE(prom.find("demo_hits_total 7"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE demo_depth gauge"), std::string::npos);
    EXPECT_NE(prom.find("demo_depth{net=\"rx\"} 3"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE demo_latency_seconds histogram"), std::string::npos);
    EXPECT_NE(prom.find("demo_latency_seconds_bucket"), std::string::npos);
    EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(prom.find("demo_latency_seconds_count 2"), std::string::npos);
}

// ------------------------------------------------- attach invariance

// The acceptance contract: a run with the health layer attached is
// bit-identical (state fingerprint) to the same run without it.
TEST(HealthMonitor, AttachedRunKeepsFingerprintBitIdentical) {
    auto run = [](bool with_health) {
        PipelineFixture fx = build_pipeline({});
        obs::HealthMonitor mon;
        if (with_health) mon.attach(fx.system());
        add_traffic(fx, {});
        fx.system().run_cycles(20'000);
        uint64_t fp = fx.system().state_fingerprint();
        if (with_health) {
            EXPECT_GT(mon.ingress_packets(), 0u);  // it really observed
            mon.detach();
        }
        return fp;
    };
    EXPECT_EQ(run(false), run(true));
}

// --------------------------------------------------------- healthy run

TEST(HealthMonitor, HealthyRunAccountsAndPassesLenientSlo) {
    PipelineFixture fx = build_pipeline({});
    obs::HealthConfig hc;
    hc.epoch_cycles = 4096;
    hc.slo = obs::parse_slo("latency_p99 <= 10ms, drop_rate <= 0.99");
    obs::HealthMonitor mon(hc);
    mon.attach(fx.system());
    add_traffic(fx, {});
    fx.system().run_cycles(20'000);
    mon.flush_epoch();

    EXPECT_GT(mon.ingress_packets(), 100u);
    EXPECT_GT(mon.egress_packets(), 100u);
    EXPECT_GT(mon.egress_bytes(), mon.egress_packets() * 60);
    EXPECT_GT(mon.latency().count(), 0u);
    EXPECT_GT(mon.latency().percentile(0.5), 0u);
    EXPECT_GE(mon.epochs_closed(), 4u);
    EXPECT_EQ(mon.watchdog_trips(), 0u);
    EXPECT_TRUE(mon.slo_ok());
    for (const auto& v : mon.verdicts()) {
        EXPECT_TRUE(v.pass);
        EXPECT_EQ(v.violations, 0u);
        EXPECT_GT(v.end, v.start);
    }

    obs::HealthMonitor::Dump d = mon.dump();
    EXPECT_NE(d.text.find("slo:"), std::string::npos);
    EXPECT_EQ(d.json.front(), '{');
    EXPECT_NE(d.json.find("\"recorder\""), std::string::npos);
    mon.detach();
    EXPECT_FALSE(mon.attached());
}

// Every terminal stage lands in its counter: the IDS sends matched packets
// through host_deliver, the firewall drops blacklisted ones at fw_drop,
// and once the capped traffic drains nothing is left in flight.
TEST(HealthMonitor, TerminalStagesBalanceIngress) {
    for (Pipeline p : {Pipeline::kPigasusHwReorder, Pipeline::kFirewall}) {
        PipelineSpec spec;
        spec.pipeline = p;
        spec.system.rpu_count = 4;
        spec.system.hw_reassembler = p == Pipeline::kPigasusHwReorder;
        PipelineFixture fx = build_pipeline(spec);
        System& sys = fx.system();
        obs::HealthMonitor mon;
        mon.attach(sys);
        TrafficParams tp;
        tp.max_packets = 200;
        tp.load = 0.3;
        tp.attack_fraction = 0.3;
        add_traffic(fx, tp);
        sys.run_cycles(60'000);

        const uint64_t wire = sys.sink(0).frames() + sys.sink(1).frames();
        const uint64_t host = sys.stats().get("host.rx_frames");
        const uint64_t fw_drops = mon.dropped_at(net::Stage::kFwDrop);
        EXPECT_EQ(mon.ingress_packets(), 200u) << pipeline_name(p);
        EXPECT_EQ(mon.egress_packets(), wire + host) << pipeline_name(p);
        EXPECT_EQ(mon.ingress_packets(), mon.egress_packets() + fw_drops) << pipeline_name(p);
        EXPECT_EQ(mon.inflight(), 0u) << pipeline_name(p);
        EXPECT_GT(p == Pipeline::kFirewall ? fw_drops : host, 0u) << pipeline_name(p);
        mon.detach();
    }
}

/// Run `fx` for `cycles` with a monitor and a reference observer attached
/// from the first cycle, and expect the monitor to time every egress
/// exactly as the reference does. The reference times each packet from
/// its mac_rx event, keyed by (ingress port, id): every generator numbers
/// its packets from 0, so an id alone repeats across ports.
void
expect_every_egress_timed(PipelineFixture& fx, sim::Cycle cycles, const char* what) {
    System& sys = fx.system();
    obs::HealthMonitor mon;
    mon.attach(sys);
    std::map<std::pair<net::Iface, uint64_t>, sim::Cycle> arrived;
    sim::Histogram want;
    uint64_t ingress = 0, egress = 0, fw_drops = 0;
    const uint64_t handle = sys.add_packet_observer(
        [&](net::Stage stage, const net::Packet& pkt, sim::Cycle now) {
            const auto key = std::make_pair(pkt.in_iface, pkt.id);
            if (stage == net::Stage::kMacRx) {
                ++ingress;
                arrived[key] = now;
            } else if (stage == net::Stage::kMacTx || stage == net::Stage::kHostDeliver) {
                ++egress;
                want.record(now - arrived.at(key));
            } else if (stage == net::Stage::kFwDrop) {
                ++fw_drops;
            }
        });
    sys.run_cycles(cycles);
    sys.remove_packet_observer(handle);

    const sim::Histogram& got = mon.latency();
    EXPECT_GT(egress, 0u) << what;
    EXPECT_EQ(got.count(), egress) << what;
    EXPECT_EQ(got.count(), want.count()) << what;
    EXPECT_EQ(got.sum(), want.sum()) << what;
    EXPECT_EQ(got.min(), want.min()) << what;
    EXPECT_EQ(got.max(), want.max()) << what;
    EXPECT_EQ(mon.latency(net::FlowClass::kTcp).count() +
                  mon.latency(net::FlowClass::kUdp).count() +
                  mon.latency(net::FlowClass::kOther).count(),
              got.count())
        << what;
    EXPECT_EQ(mon.inflight(), ingress - egress - fw_drops) << what;
    mon.detach();
}

// Latency comes from the stamp the fabric puts on each packet at MAC
// admission, so no egress goes untimed: not with two ports numbering
// their packets alike, not with thousands of 64 B frames queued in a MAC
// FIFO, and a packet the LB reassembler held is timed from its release.
TEST(HealthMonitor, TimesEveryEgressedPacket) {
    {
        PipelineFixture fx = build_pipeline({});
        for (unsigned port = 0; port < 2; ++port) {
            net::TrafficSpec tspec;
            tspec.packet_size = 512;
            tspec.seed = 21 + port;
            auto gen = std::make_shared<net::TraceGenerator>(tspec);
            fx.system().add_source({.port = port, .line_gbps = 100.0, .load = 0.7},
                                   [gen] { return gen->next(); });
        }
        expect_every_egress_timed(fx, 60'000, "two-port forwarder");
    }
    {
        PipelineSpec spec;
        spec.pipeline = Pipeline::kFirewall;
        PipelineFixture fx = build_pipeline(spec);
        TrafficParams tp;  // `rosebud_cli health --pipeline firewall`, 64 B point
        tp.packet_size = 64;
        tp.load = 0.9;
        tp.seed = 1'000'067;
        add_traffic(fx, tp);
        expect_every_egress_timed(fx, 40'000, "firewall at 64 B");
    }
    {
        PipelineSpec spec;
        spec.pipeline = Pipeline::kPigasusHwReorder;
        spec.system.hw_reassembler = true;
        PipelineFixture fx = build_pipeline(spec);
        net::TrafficSpec tspec;
        tspec.packet_size = 512;
        tspec.attack_fraction = 0.05;
        tspec.reorder_fraction = 0.05;
        tspec.flow_count = 64;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, fx.rules.get());
        fx.system().add_source({.port = 0, .line_gbps = 100.0, .load = 0.5},
                               [gen] { return gen->next(); });
        expect_every_egress_timed(fx, 40'000, "ids-hw with the reassembler");
        EXPECT_GT(fx.system().stats().get("lb.reassembler.held"), 0u);
    }
}

TEST(HealthMonitor, ImpossibleSloProducesFailedVerdicts) {
    PipelineFixture fx = build_pipeline({});
    obs::HealthConfig hc;
    hc.epoch_cycles = 4096;
    hc.slo = obs::parse_slo("latency_p99 <= 1c");
    obs::HealthMonitor mon(hc);
    mon.attach(fx.system());
    add_traffic(fx, {});
    fx.system().run_cycles(20'000);
    mon.flush_epoch();

    EXPECT_FALSE(mon.slo_ok());
    EXPECT_GT(mon.slo_violations(), 0u);
    bool saw_fail = false;
    for (const auto& v : mon.verdicts()) {
        if (!v.pass) {
            saw_fail = true;
            EXPECT_NE(v.violations & 1u, 0u);  // bound 0 violated
        }
    }
    EXPECT_TRUE(saw_fail);
    mon.detach();
}

// ------------------------------------------------------------- watchdog

// Injected stall: hot-swap a busy-looping image onto one RPU mid-run. The
// per-component liveness watchdog must trip, name the component, and point
// at the deepest-backlog net. RPU 0 is in the set because every other
// RPU's sends must not count as its liveness.
TEST(HealthMonitor, WatchdogTripsOnInjectedFirmwareStall) {
    for (unsigned stalled : {0u, 1u}) {
        SCOPED_TRACE("stall_rpu " + std::to_string(stalled));
        obs::HealthSpec spec;
        spec.packet_sizes = {512};
        spec.run_cycles = 30'000;
        spec.inject_stall = true;
        spec.stall_rpu = stalled;
        spec.stall_at = 5'000;
        spec.health.watchdog.component_timeout = 8'000;
        obs::HealthResult r = obs::run_health(spec);

        EXPECT_TRUE(r.watchdog_tripped);
        ASSERT_EQ(r.rows.size(), 1u);
        EXPECT_TRUE(r.rows[0].tripped);
        EXPECT_NE(r.trip_summary.find("rpu" + std::to_string(stalled)), std::string::npos);
        EXPECT_NE(r.trip_summary.find("deepest="), std::string::npos);
        // The flight dump carries the trip and the stall attribution.
        EXPECT_NE(r.flight_text.find("WATCHDOG TRIP"), std::string::npos);
        EXPECT_NE(r.flight_json.find("watchdog_trip"), std::string::npos);
    }
}

TEST(HealthMonitor, HealthySweepDoesNotTrip) {
    obs::HealthSpec spec;
    spec.packet_sizes = {512};
    spec.run_cycles = 20'000;
    spec.slo = "latency_p99 <= 10ms, drop_rate <= 0.99";
    obs::HealthResult r = obs::run_health(spec);
    EXPECT_FALSE(r.watchdog_tripped);
    EXPECT_TRUE(r.slo_ok);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_GT(r.rows[0].gbps, 0.0);
    EXPECT_FALSE(r.metrics_prom.empty());
    EXPECT_NE(r.metrics_prom.find("rosebud_health_ingress_packets_total"),
              std::string::npos);
}

// The health layer checks the fastest kernel mode: at 0.5% load the paced
// sources time-sleep between frames, so most cycles are fast-forwarded,
// and the monitor must still see every packet and close every epoch.
TEST(HealthMonitor, ChecksTimedSleepAtLowLoad) {
    constexpr sim::Cycle kCycles = 242'500;
    auto run = [](obs::HealthMonitor* mon, sim::Cycle* fast_forwarded) {
        PipelineSpec spec;
        spec.system.rpu_count = 16;
        PipelineFixture fx = build_pipeline(spec);
        System& sys = fx.system();
        if (mon) mon->attach(sys);
        for (unsigned port = 0; port < 2; ++port) {
            net::TrafficSpec tspec;
            tspec.packet_size = 256;
            tspec.seed = 2654435761u + port;
            auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
            sys.add_source({.port = port, .line_gbps = 100.0, .load = 0.005},
                           [gen] { return gen->next(); });
        }
        sys.run_cycles(kCycles);
        *fast_forwarded = sys.kernel().fast_forwarded_cycles();
        const uint64_t fp = sys.state_fingerprint();
        if (mon) {
            mon->flush_epoch();
            mon->detach();  // before the System dies
        }
        return fp;
    };
    sim::Cycle ff_detached = 0, ff_attached = 0;
    const uint64_t detached = run(nullptr, &ff_detached);
    obs::HealthMonitor mon;
    const uint64_t attached = run(&mon, &ff_attached);

    EXPECT_EQ(attached, detached);
    EXPECT_EQ(ff_attached, ff_detached);
    EXPECT_GE(2 * ff_attached, kCycles);
    EXPECT_GT(mon.egress_packets(), 0u);
    EXPECT_EQ(mon.watchdog_trips(), 0u);
    EXPECT_EQ(mon.slo_violations(), 0u);
    const uint64_t epoch = obs::HealthConfig{}.epoch_cycles;
    EXPECT_EQ(mon.epochs_closed(), (kCycles + epoch - 1) / epoch);
}

// ------------------------------------------------------ mid-run query

TEST(HealthMonitor, HostMetricsSnapshotQuery) {
    PipelineFixture fx = build_pipeline({});
    obs::HealthMonitor mon;
    mon.attach(fx.system());
    add_traffic(fx, {});
    fx.system().run_cycles(10'000);

    // A host-phase query while the run is live renders the monitor's own series.
    std::string prom = mon.metrics().prometheus_text();
    EXPECT_NE(prom.find("rosebud_health_ingress_packets_total"), std::string::npos);
    EXPECT_NE(prom.find("rosebud_packet_latency_seconds"), std::string::npos);
    mon.detach();
}

// ------------------------------------------- exporter degenerate inputs

TEST(Exporters, ZeroCycleRunProducesValidDocuments) {
    PipelineFixture fx = build_pipeline({});
    obs::FlightRecorder rec;
    rec.attach(fx.system());
    obs::Telemetry telem;
    telem.attach(fx.system());
    // No cycles at all: exporters must still emit well-formed documents.
    telem.detach();
    std::string trace = obs::trace_json(rec, &telem);
    EXPECT_NE(trace.find("traceEvents"), std::string::npos);
    obs::VcdWriter vcd;
    std::string dump = vcd.str();
    EXPECT_NE(dump.find("$enddefinitions"), std::string::npos);
}

TEST(Exporters, DetachMidRunThenKeepSimulating) {
    PipelineFixture fx = build_pipeline({});
    obs::Telemetry::Config tc;
    tc.epoch_cycles = 1024;
    tc.capture_vcd = true;
    obs::Telemetry telem(tc);
    telem.attach(fx.system());
    add_traffic(fx, {});
    fx.system().run_cycles(5'000);
    telem.detach();
    // The system must keep running untouched after the detach, and the
    // telemetry captured so far must still export.
    fx.system().run_cycles(5'000);
    EXPECT_FALSE(telem.epochs().empty());
    std::string dump = telem.vcd().str();
    EXPECT_NE(dump.find("$enddefinitions"), std::string::npos);
}

TEST(Exporters, HostileNetNamesAreSanitizedInVcd) {
    obs::VcdWriter vcd;
    int a = vcd.add_signal("evil name.with$dollar", 1);
    int b = vcd.add_signal("9starts.digit", 4);
    int c = vcd.add_signal("..empty", 1);
    vcd.change(0, a, 1);
    vcd.change(0, b, 5);
    vcd.change(0, c, 0);
    std::string dump = vcd.str();
    EXPECT_NE(dump.find("$scope module evil_name $end"), std::string::npos);
    EXPECT_NE(dump.find("with_dollar"), std::string::npos);
    EXPECT_NE(dump.find("$scope module _9starts $end"), std::string::npos);
    EXPECT_NE(dump.find("$var wire 4"), std::string::npos);
    EXPECT_NE(dump.find(" digit "), std::string::npos);
    // Empty path segments become "_" rather than corrupting declarations.
    EXPECT_NE(dump.find("$scope module _ $end"), std::string::npos);
    // No raw '$' may survive inside an identifier (every '$' is a keyword).
    for (size_t pos = dump.find('$'); pos != std::string::npos;
         pos = dump.find('$', pos + 1)) {
        static const char* kw[] = {"$date", "$version", "$timescale", "$scope",
                                   "$upscope", "$var", "$enddefinitions",
                                   "$dumpvars", "$end"};
        bool is_kw = false;
        for (const char* k : kw)
            if (dump.compare(pos, std::string(k).size(), k) == 0) is_kw = true;
        EXPECT_TRUE(is_kw) << "stray '$' at offset " << pos;
    }
}

}  // namespace
}  // namespace rosebud
