/// Whole-system property tests: packet conservation (every packet offered
/// is exactly one of forwarded / host-delivered / dropped-with-a-counter),
/// no duplication, slot-accounting closure, and determinism of complete
/// runs — under randomized traffic mixes and configurations.
///
/// Expressed against the golden-oracle scoreboard (src/oracle): a run with
/// zero divergences already proves per-packet conservation, no duplication,
/// no stuck packets, and byte-exact outputs, so these tests assert on the
/// scoreboard's counts instead of re-deriving them from raw stats.

#include <gtest/gtest.h>

#include <memory>

#include "accel/firewall.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "oracle/harness.h"

namespace rosebud {
namespace {

namespace oracle = rosebud::oracle;

/// Forwarder pipeline under a randomized traffic mix, checked online by
/// the differential scoreboard.
oracle::RunResult
run_random_mix(uint64_t seed, unsigned rpus, lb::Policy policy, double load,
               uint32_t size) {
    oracle::RunSpec s;
    s.pipeline = oracle::Pipeline::kForwarder;
    s.rpu_count = rpus;
    s.policy = policy;
    s.seed = seed;
    s.load = load;
    s.packet_size = size;
    s.max_packets = 400;
    s.udp_fraction = 0.3;
    return oracle::run_differential(s);
}

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<unsigned, lb::Policy, double>> {};

TEST_P(ConservationTest, EveryPacketAccountedExactlyOnce) {
    auto [rpus, policy, load] = GetParam();
    oracle::RunResult res = run_random_mix(7, rpus, policy, load, 300);
    // Zero divergences covers duplication (a second terminal for the same
    // packet diverges) and stuck packets (flagged by finish()).
    EXPECT_TRUE(res.ok) << res.report;
    EXPECT_EQ(res.counts.divergences, 0u) << res.report;
    EXPECT_EQ(res.counts.offered,
              res.counts.forwarded_wire + res.counts.host_delivered +
                  res.counts.fw_dropped + res.counts.congestion_dropped);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ConservationTest,
    ::testing::Values(std::make_tuple(4u, lb::Policy::kRoundRobin, 0.3),
                      std::make_tuple(4u, lb::Policy::kRoundRobin, 1.0),
                      std::make_tuple(8u, lb::Policy::kHash, 0.5),
                      std::make_tuple(8u, lb::Policy::kLeastLoaded, 1.0),
                      std::make_tuple(16u, lb::Policy::kRoundRobin, 1.0)),
    [](const auto& info) {
        return "rpus" + std::to_string(std::get<0>(info.param)) + "_policy" +
               std::to_string(int(std::get<1>(info.param))) + "_load" +
               std::to_string(int(std::get<2>(info.param) * 10));
    });

TEST(SystemInvariants, SlotAccountingClosesAfterDrain) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        oracle::RunResult res =
            run_random_mix(seed, 8, lb::Policy::kRoundRobin, 1.0, 128);
        EXPECT_EQ(res.counts.divergences, 0u) << res.report;
        EXPECT_GT(res.counts.forwarded_wire, 0u);
    }
    SystemConfig cfg;
    cfg.rpu_count = 8;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(sys.lb().free_slots(uint8_t(i)), 32u);
}

TEST(SystemInvariants, RunsAreBitIdenticalAcrossProcessReplays) {
    auto fingerprint = [](uint64_t seed) {
        oracle::RunResult res = run_random_mix(seed, 8, lb::Policy::kHash, 0.8, 200);
        EXPECT_EQ(res.counts.divergences, 0u) << res.report;
        // output_byte_hash digests (egress kind, packet id, bytes) for
        // every terminal: equal digests mean byte-identical runs.
        uint64_t fp = res.counts.output_byte_hash;
        fp = fp * 1000003 + res.counts.forwarded_wire;
        fp = fp * 10007 + res.counts.host_delivered;
        fp = fp * 101 + res.counts.fw_dropped + res.counts.congestion_dropped;
        return fp;
    };
    EXPECT_EQ(fingerprint(11), fingerprint(11));
    EXPECT_NE(fingerprint(11), fingerprint(12));
}

// The fingerprint is what the schedule-equivalence tests compare, so it
// must cover the latency every delivered packet records at its sink.
TEST(SystemInvariants, FingerprintCoversSinkLatencies) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    const uint64_t before = sys.state_fingerprint();
    sys.sink(0).latency().record(1234);
    EXPECT_NE(sys.state_fingerprint(), before);
}

TEST(SystemInvariants, FirewallConservationWithDrops) {
    // Scoreboard attached directly to a hand-built System: the oracle does
    // not just count drops, it checks each one was justified (blacklisted
    // source) and each forward was byte-exact.
    sim::Rng rng(9);
    auto bl = net::Blacklist::synthesize(64, rng);
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    sys.attach_accelerators([&] { return std::make_unique<accel::FirewallMatcher>(bl); });
    auto fw = fwlib::firewall();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    oracle::OracleConfig ocfg;
    ocfg.pipeline = oracle::Pipeline::kFirewall;
    ocfg.lb_policy = lb::Policy::kRoundRobin;
    ocfg.rpu_count = 4;
    ocfg.blacklist = &bl;
    oracle::DataplaneOracle orc(ocfg);
    oracle::Scoreboard sb(sys, orc);

    net::TrafficSpec spec;
    spec.packet_size = 200;
    spec.attack_fraction = 0.3;
    spec.seed = 9;
    auto gen = std::make_shared<net::TraceGenerator>(spec, nullptr, &bl);
    uint64_t attacks = 0;
    auto& src = sys.add_source({.port = 0, .load = 0.3, .max_packets = 300},
                               [gen, &attacks] {
                                   auto p = gen->next();
                                   attacks += p->is_attack;
                                   return p;
                               });
    sys.run_cycles(100000);

    auto counts = sb.finish();
    EXPECT_EQ(sb.divergence_count(), 0u) << sb.report();
    EXPECT_EQ(src.offered(), 300u);
    EXPECT_EQ(counts.fw_dropped, attacks);              // exactly the blacklisted traffic
    EXPECT_EQ(counts.forwarded_wire, 300u - attacks);   // everything else came out
}

TEST(SystemInvariants, NoDuplicationAcrossReconfiguration) {
    // Partial reconfiguration mid-traffic (host drains the target RPU,
    // swaps the region, reboots it, resumes traffic) must not duplicate,
    // lose, or corrupt a single packet. The scoreboard would flag any of
    // those as a divergence.
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    oracle::OracleConfig ocfg;
    ocfg.pipeline = oracle::Pipeline::kForwarder;
    ocfg.lb_policy = lb::Policy::kRoundRobin;
    ocfg.rpu_count = 4;
    oracle::DataplaneOracle orc(ocfg);
    oracle::Scoreboard sb(sys, orc);

    net::TrafficSpec spec;
    spec.packet_size = 256;
    spec.seed = 21;
    auto gen = std::make_shared<net::TraceGenerator>(spec);
    auto& src = sys.add_source({.port = 0, .load = 0.5, .max_packets = 600},
                               [gen] { return gen->next(); });

    sys.run_cycles(1000);  // traffic in full flight
    sim::Rng rng(5);
    sys.host().reconfigure(1, nullptr, fw.image, fw.entry, rng);
    sys.run_cycles(1000);
    sys.host().reconfigure(2, nullptr, fw.image, fw.entry, rng);

    for (int i = 0; i < 30 && sb.outstanding() > 0; ++i) sys.run_cycles(10000);
    auto counts = sb.finish();
    EXPECT_EQ(sb.divergence_count(), 0u) << sb.report();
    EXPECT_EQ(src.offered(), 600u);
    EXPECT_EQ(counts.offered,
              counts.forwarded_wire + counts.host_delivered + counts.fw_dropped +
                  counts.congestion_dropped);
    EXPECT_EQ(sys.stats().get("host.pr_loads"), 2u);
}

}  // namespace
}  // namespace rosebud
