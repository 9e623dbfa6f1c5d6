/// Differential sweep: every supported (pipeline, rpu_count, lb_policy,
/// traffic, seed) combination runs seeded random traffic through the full
/// cycle-level system with the golden-oracle scoreboard attached, and
/// must finish with zero divergences and every packet accounted for.
/// Deliberately corrupted runs (wrong oracle blacklist, an RPU halted
/// mid-run) must conversely *produce* divergences, proving the scoreboard
/// actually detects mismatches and reports them usefully.

#include <gtest/gtest.h>

#include "net/rules.h"
#include "oracle/harness.h"

using rosebud::System;
using rosebud::oracle::Pipeline;
using rosebud::oracle::RunResult;
using rosebud::oracle::RunSpec;
using rosebud::oracle::run_differential;

namespace lb = rosebud::lb;
namespace net = rosebud::net;
namespace sim = rosebud::sim;

namespace {

std::string
policy_name(lb::Policy p) {
    switch (p) {
    case lb::Policy::kRoundRobin: return "rr";
    case lb::Policy::kHash: return "hash";
    case lb::Policy::kLeastLoaded: return "ll";
    default: return "custom";
    }
}

/// The sweep: >= 20 distinct (config, seed) combinations covering every
/// supported pipeline/policy pair, several RPU counts, the hardware
/// reassembler, reordered TCP, attack traffic, and multiple seeds.
std::vector<RunSpec>
make_sweep() {
    std::vector<RunSpec> specs;
    uint64_t seed = 9000;

    // Forwarder: all three static policies x two fabric sizes.
    for (lb::Policy pol :
         {lb::Policy::kRoundRobin, lb::Policy::kHash, lb::Policy::kLeastLoaded}) {
        for (unsigned rpus : {4u, 8u}) {
            RunSpec s;
            s.pipeline = Pipeline::kForwarder;
            s.policy = pol;
            s.rpu_count = rpus;
            s.seed = ++seed;
            specs.push_back(s);
        }
    }

    // Forwarder at 16 RPUs, jumbo-ish frames.
    {
        RunSpec s;
        s.pipeline = Pipeline::kForwarder;
        s.rpu_count = 16;
        s.packet_size = 1024;
        s.max_packets = 150;
        s.seed = ++seed;
        specs.push_back(s);
    }

    // Firewall: blacklisted + non-IP drops in the mix, two seeds per policy.
    for (lb::Policy pol : {lb::Policy::kRoundRobin, lb::Policy::kLeastLoaded}) {
        for (int i = 0; i < 2; ++i) {
            RunSpec s;
            s.pipeline = Pipeline::kFirewall;
            s.policy = pol;
            s.attack_fraction = 0.25;
            s.seed = ++seed;
            specs.push_back(s);
        }
    }

    // Pigasus, hardware reorder: attacks + reordered TCP, with and
    // without the inline reassembler.
    for (lb::Policy pol : {lb::Policy::kRoundRobin, lb::Policy::kLeastLoaded}) {
        RunSpec s;
        s.pipeline = Pipeline::kPigasusHwReorder;
        s.policy = pol;
        s.attack_fraction = 0.2;
        s.reorder_fraction = 0.03;
        s.seed = ++seed;
        specs.push_back(s);
    }
    {
        RunSpec s;
        s.pipeline = Pipeline::kPigasusHwReorder;
        s.hw_reassembler = true;
        s.attack_fraction = 0.2;
        s.reorder_fraction = 0.05;
        s.seed = ++seed;
        specs.push_back(s);
    }

    // Pigasus, software reorder (hash policy only): the punt paths fire
    // under reordering; three seeds.
    for (int i = 0; i < 3; ++i) {
        RunSpec s;
        s.pipeline = Pipeline::kPigasusSwReorder;
        s.policy = lb::Policy::kHash;
        s.attack_fraction = 0.2;
        s.reorder_fraction = 0.05;
        s.seed = ++seed;
        specs.push_back(s);
    }

    // NAT: outbound translation plus external pass-through, all policies.
    for (lb::Policy pol :
         {lb::Policy::kRoundRobin, lb::Policy::kHash, lb::Policy::kLeastLoaded}) {
        RunSpec s;
        s.pipeline = Pipeline::kNat;
        s.policy = pol;
        s.attack_fraction = 0.3;  // external sources -> pass-through path
        s.seed = ++seed;
        specs.push_back(s);
    }

    // Small frames at high load: congestion drops must be tolerated.
    {
        RunSpec s;
        s.pipeline = Pipeline::kForwarder;
        s.rpu_count = 4;
        s.packet_size = 64;
        s.load = 1.0;
        s.max_packets = 400;
        s.seed = ++seed;
        specs.push_back(s);
    }
    // Extra seeds on the two paper case studies.
    for (int i = 0; i < 2; ++i) {
        RunSpec s;
        s.pipeline = Pipeline::kFirewall;
        s.rpu_count = 16;
        s.attack_fraction = 0.4;
        s.seed = ++seed;
        specs.push_back(s);
        RunSpec t;
        t.pipeline = Pipeline::kPigasusHwReorder;
        t.rpu_count = 16;
        t.attack_fraction = 0.1;
        t.seed = ++seed;
        specs.push_back(t);
    }
    return specs;
}

std::string
spec_name(const testing::TestParamInfo<RunSpec>& info) {
    const RunSpec& s = info.param;
    std::string n = rosebud::oracle::pipeline_name(s.pipeline);
    for (auto& c : n) {
        if (c == '-') c = '_';
    }
    n += "_" + policy_name(s.policy) + "_r" + std::to_string(s.rpu_count) + "_s" +
         std::to_string(s.seed) + "_" + std::to_string(info.index);
    return n;
}

}  // namespace

class OracleDifferential : public testing::TestWithParam<RunSpec> {};

TEST_P(OracleDifferential, ZeroDivergences) {
    RunResult res = run_differential(GetParam());
    EXPECT_TRUE(res.ok) << res.report;
    EXPECT_EQ(res.counts.divergences, 0u) << res.report;
    EXPECT_GT(res.counts.offered, 0u);
    // Conservation: every offered packet reached exactly one terminal.
    EXPECT_EQ(res.counts.offered,
              res.counts.forwarded_wire + res.counts.host_delivered +
                  res.counts.fw_dropped + res.counts.congestion_dropped);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleDifferential, testing::ValuesIn(make_sweep()),
                         spec_name);

// --- divergence detection (deliberately corrupted runs) ---------------------

TEST(OracleDivergence, CorruptedOracleBlacklistIsDetected) {
    // Give the oracle a *different* blacklist than the device: packets the
    // device drops look like false drops, packets it forwards look like
    // missed drops. The scoreboard must notice and the report must carry
    // usable context.
    sim::Rng rng(4242);
    net::Blacklist wrong = net::Blacklist::synthesize(48, rng);

    RunSpec s;
    s.pipeline = Pipeline::kFirewall;
    s.attack_fraction = 0.5;
    s.seed = 77;
    s.oracle_blacklist = &wrong;
    RunResult res = run_differential(s);

    EXPECT_FALSE(res.ok);
    EXPECT_GT(res.counts.divergences, 0u);
    EXPECT_NE(res.report.find("divergence #1"), std::string::npos) << res.report;
    EXPECT_NE(res.report.find("input frame"), std::string::npos) << res.report;
    EXPECT_NE(res.report.find("predicted"), std::string::npos) << res.report;
}

TEST(OracleDivergence, HaltedRpuShowsUpAsStuckPackets) {
    RunSpec s;
    s.pipeline = Pipeline::kForwarder;
    s.rpu_count = 4;
    s.seed = 99;
    s.load = 0.5;
    s.max_packets = 400;
    s.run_cycles = 2'000;  // the halt (at run_cycles/2) lands mid-traffic
    s.drain_rounds = 5;    // don't wait forever for packets that can't drain
    s.mid_run = [](System& sys) { sys.rpu(1).halt(); };
    RunResult res = run_differential(s);

    EXPECT_FALSE(res.ok);
    EXPECT_GT(res.counts.divergences, 0u);
    EXPECT_NE(res.report.find("stuck-packet"), std::string::npos) << res.report;
}

// --- timed sleep under the scoreboard ---------------------------------------

TEST(OracleTimedSleep, LowLoadForwarderFastForwardsWithZeroDivergences) {
    // An uncapped-rate source at load 0.05 sleeps between 1500 B frames and
    // the idle DUT lets the kernel fast-forward, with every packet scored.
    RunSpec s;
    s.pipeline = Pipeline::kForwarder;
    s.packet_size = 1500;
    s.load = 0.05;
    s.max_packets = 100;
    sim::Cycle fast_forwarded = 0;
    uint64_t offered = 0;
    s.mid_run = [&](System& sys) {
        fast_forwarded = sys.kernel().fast_forwarded_cycles();
        offered = sys.stats().get("port0.rx_frames");
    };
    RunResult res = run_differential(s);
    EXPECT_TRUE(res.ok) << res.report;
    EXPECT_EQ(res.counts.divergences, 0u) << res.report;
    EXPECT_EQ(res.counts.offered, s.max_packets);
    // Halfway through, the kernel had already fast-forwarded while the
    // source still had packets left to offer.
    EXPECT_GT(fast_forwarded, 0u);
    EXPECT_GT(offered, 0u);
    EXPECT_LT(offered, s.max_packets);
}

// --- determinism ------------------------------------------------------------

TEST(OracleDeterminism, IdenticalSeedsProduceIdenticalOutputBytes) {
    RunSpec s;
    s.pipeline = Pipeline::kPigasusHwReorder;
    s.attack_fraction = 0.2;
    s.seed = 31337;
    RunResult a = run_differential(s);
    RunResult b = run_differential(s);
    ASSERT_TRUE(a.ok) << a.report;
    ASSERT_TRUE(b.ok) << b.report;
    EXPECT_EQ(a.counts.output_byte_hash, b.counts.output_byte_hash);
    EXPECT_EQ(a.counts.forwarded_wire, b.counts.forwarded_wire);
    EXPECT_EQ(a.counts.host_delivered, b.counts.host_delivered);

    RunSpec s2 = s;
    s2.seed = 31338;
    RunResult c = run_differential(s2);
    ASSERT_TRUE(c.ok) << c.report;
    EXPECT_NE(a.counts.output_byte_hash, c.counts.output_byte_hash);
}
