/// Case-insensitive matching (`nocase`) across both matchers, plus broad
/// parameterized sweeps asserting monotone/consistent shapes of the
/// experiment harnesses over packet sizes.

#include <gtest/gtest.h>

#include "accel/pigasus.h"
#include "baseline/snort_model.h"
#include "core/experiments.h"
#include "net/rules.h"

namespace rosebud {
namespace {

net::IdsRuleSet
nocase_rules() {
    return net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"MixedCaseAttack\"; nocase; sid:1;)\n"
        "alert tcp any any -> any any (content:\"ExactCaseOnly9\"; sid:2;)\n");
}

std::vector<uint32_t>
pig_match(const accel::PigasusMatcher& pig, const std::string& payload) {
    return pig.match_payload(reinterpret_cast<const uint8_t*>(payload.data()),
                             payload.size(), 0, true);
}

TEST(Nocase, PigasusMatchesAnyCase) {
    accel::PigasusMatcher pig(nocase_rules());
    EXPECT_EQ(pig_match(pig, "xx mixedcaseattack xx"), std::vector<uint32_t>{1});
    EXPECT_EQ(pig_match(pig, "xx MIXEDCASEATTACK xx"), std::vector<uint32_t>{1});
    EXPECT_EQ(pig_match(pig, "xx MiXeDcAsEaTtAcK xx"), std::vector<uint32_t>{1});
    EXPECT_EQ(pig_match(pig, "xx MixedCaseAttack xx"), std::vector<uint32_t>{1});
}

TEST(Nocase, ExactPatternsStayCaseSensitive) {
    accel::PigasusMatcher pig(nocase_rules());
    EXPECT_EQ(pig_match(pig, "xx ExactCaseOnly9 xx"), std::vector<uint32_t>{2});
    EXPECT_TRUE(pig_match(pig, "xx exactcaseonly9 xx").empty());
    EXPECT_TRUE(pig_match(pig, "xx EXACTCASEONLY9 xx").empty());
}

TEST(Nocase, SnortBaselineAgreesWithPigasus) {
    auto rules = nocase_rules();
    accel::PigasusMatcher pig(rules);
    baseline::SnortModel snort(rules);
    for (const char* payload :
         {"mixedcaseattack", "MIXEDCASEATTACK", "MixedCaseAttack", "exactcaseonly9",
          "ExactCaseOnly9", "nothing to see", "mIxEdCaSeAtTaCk trailer"}) {
        net::PacketBuilder b;
        b.ipv4(1, 2).tcp(1000, 2000).payload_str(payload).frame_size(200);
        auto p = b.build();
        EXPECT_EQ(!pig_match(pig, std::string(payload) +
                                      std::string(200 - 54 - strlen(payload), '\xa5'))
                       .empty(),
                  snort.packet_matches(*p))
            << payload;
    }
}

TEST(Nocase, MultiContentMixedModifiers) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any "
        "(content:\"FirstPart\"; nocase; content:\"secondpart\"; sid:3;)\n");
    accel::PigasusMatcher pig(rules);
    EXPECT_FALSE(pig_match(pig, "FIRSTPART ... secondpart").empty());
    EXPECT_FALSE(pig_match(pig, "firstpart ... secondpart").empty());
    // The second content is case-sensitive.
    EXPECT_TRUE(pig_match(pig, "FIRSTPART ... SECONDPART").empty());
}

// --- sweep shape properties ---------------------------------------------------

class ForwardingSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ForwardingSweep, FractionOfLineIsMonotoneInPacketSize) {
    unsigned rpus = GetParam();
    double prev = 0.0;
    for (uint32_t size : {64u, 128u, 256u, 512u, 1024u}) {
        exp::ForwardingParams p;
        p.rpu_count = rpus;
        p.size = size;
        p.warmup = 15000;
        p.window = 40000;
        auto r = exp::run_forwarding(p);
        double frac = r.achieved_gbps / r.line_gbps;
        EXPECT_GE(frac, prev - 0.01) << "size " << size;
        EXPECT_LE(frac, 1.005) << "never exceeds line rate";
        prev = frac;
    }
    EXPECT_GT(prev, 0.99);  // large packets always reach line rate
}

INSTANTIATE_TEST_SUITE_P(Layouts, ForwardingSweep, ::testing::Values(8u, 16u),
                         [](const auto& info) {
                             return "rpus" + std::to_string(info.param);
                         });

TEST(LatencySweep, MonotoneInSizeAndMatchesEq1Slope) {
    double prev = 0.0;
    for (uint32_t size : {64u, 256u, 1024u, 4096u}) {
        exp::LatencyParams p;
        p.size = size;
        p.load = 0.05;
        p.warmup = 15000;
        p.window = 50000;
        auto r = exp::run_latency(p);
        EXPECT_GT(r.mean_us, prev) << size;
        prev = r.mean_us;
    }
    // Slope between the extremes ~ Eq. 1's 0.66 ns/B.
    exp::LatencyParams a, b;
    a.size = 64;
    b.size = 4096;
    a.warmup = b.warmup = 15000;
    a.window = b.window = 50000;
    double slope =
        (exp::run_latency(b).mean_us - exp::run_latency(a).mean_us) * 1e3 / (4096 - 64);
    EXPECT_NEAR(slope, 8.0 * (2.0 / 100.0 + 2.0 / 32.0), 0.05);
}

TEST(FirewallSweep, FractionRisesToLineRateAt256) {
    double frac128, frac256;
    {
        exp::FirewallParams p;
        p.size = 128;
        p.warmup = 15000;
        p.window = 40000;
        auto r = exp::run_firewall(p);
        frac128 = r.achieved_gbps / r.line_gbps;
    }
    {
        exp::FirewallParams p;
        p.size = 256;
        p.warmup = 15000;
        p.window = 40000;
        auto r = exp::run_firewall(p);
        frac256 = r.achieved_gbps / r.line_gbps;
    }
    EXPECT_LT(frac128, 0.95);  // firmware-limited below 256 B
    EXPECT_GT(frac256, 0.99);  // the paper's crossover
}

TEST(IpsSweep, HwAlwaysAtLeastSw) {
    for (uint32_t size : {256u, 800u, 1500u}) {
        exp::IpsParams p;
        p.size = size;
        p.warmup = 15000;
        p.window = 40000;
        p.mode = exp::IpsMode::kHwReorder;
        auto hw = exp::run_ips(p);
        p.mode = exp::IpsMode::kSwReorder;
        auto sw = exp::run_ips(p);
        EXPECT_GE(hw.achieved_gbps, sw.achieved_gbps * 0.99) << size;
        EXPECT_LE(sw.cycles_per_packet + 1e-9, 1e6);
        EXPECT_GE(sw.cycles_per_packet, hw.cycles_per_packet * 0.95) << size;
    }
}

}  // namespace
}  // namespace rosebud
