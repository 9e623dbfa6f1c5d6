/// Traffic/trace generation: determinism, sizing, attack crafting
/// (IDS patterns and blacklist sources), and reorder injection.

#include <gtest/gtest.h>

#include "baseline/snort_model.h"
#include "net/flow.h"
#include "net/tracegen.h"

namespace rosebud::net {
namespace {

TEST(TraceGen, DeterministicForSameSeed) {
    TrafficSpec spec;
    spec.seed = 99;
    TraceGenerator a(spec), b(spec);
    for (int i = 0; i < 200; ++i) {
        auto pa = a.next();
        auto pb = b.next();
        EXPECT_EQ(pa->data, pb->data) << i;
        EXPECT_EQ(pa->is_attack, pb->is_attack);
    }
}

TEST(TraceGen, RespectsPacketSize) {
    for (uint32_t s : {64u, 128u, 1500u, 9000u}) {
        TrafficSpec spec;
        spec.packet_size = s;
        TraceGenerator gen(spec);
        for (int i = 0; i < 50; ++i) EXPECT_EQ(gen.next()->size(), s);
    }
}

TEST(TraceGen, AllFramesParse) {
    TrafficSpec spec;
    spec.udp_fraction = 0.5;
    TraceGenerator gen(spec);
    for (int i = 0; i < 300; ++i) {
        auto parsed = parse_packet(*gen.next());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_TRUE(parsed->has_tcp || parsed->has_udp);
    }
}

TEST(TraceGen, TcpSequencesAdvanceByPayload) {
    TrafficSpec spec;
    spec.packet_size = 200;
    spec.udp_fraction = 0.0;
    spec.flow_count = 2;
    TraceGenerator gen(spec);
    std::map<uint32_t, uint32_t> last_seq;  // flow hash -> next expected
    for (int i = 0; i < 100; ++i) {
        auto p = gen.next();
        auto parsed = parse_packet(*p);
        ASSERT_TRUE(parsed->has_tcp);
        uint32_t h = packet_flow_hash(*p);
        if (last_seq.count(h)) {
            EXPECT_EQ(parsed->tcp.seq, last_seq[h]);
        }
        last_seq[h] = parsed->tcp.seq + parsed->payload_len;
    }
}

TEST(TraceGen, AttackFractionApproximatelyHonored) {
    sim::Rng rng(5);
    auto rules = IdsRuleSet::synthesize(32, rng);
    TrafficSpec spec;
    spec.attack_fraction = 0.2;
    spec.packet_size = 512;
    TraceGenerator gen(spec, &rules);
    int attacks = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) attacks += gen.next()->is_attack;
    EXPECT_NEAR(double(attacks) / n, 0.2, 0.05);
}

TEST(TraceGen, AttackPacketsActuallyMatchRules) {
    sim::Rng rng(5);
    auto rules = IdsRuleSet::synthesize(32, rng);
    baseline::SnortModel ref(rules);
    TrafficSpec spec;
    spec.attack_fraction = 0.3;
    spec.packet_size = 512;
    TraceGenerator gen(spec, &rules);
    int attacks = 0;
    for (int i = 0; i < 1000; ++i) {
        auto p = gen.next();
        if (!p->is_attack) continue;
        ++attacks;
        EXPECT_TRUE(ref.packet_matches(*p)) << "attack packet " << p->id << " missed";
    }
    EXPECT_GT(attacks, 100);
}

TEST(TraceGen, SafePacketsDoNotMatchRules) {
    sim::Rng rng(5);
    auto rules = IdsRuleSet::synthesize(32, rng);
    baseline::SnortModel ref(rules);
    TrafficSpec spec;
    spec.attack_fraction = 0.0;
    spec.packet_size = 1024;
    TraceGenerator gen(spec, &rules);
    for (int i = 0; i < 1000; ++i) {
        auto p = gen.next();
        EXPECT_FALSE(ref.packet_matches(*p)) << "false positive on safe packet";
    }
}

TEST(TraceGen, BlacklistAttacksUseBlacklistedSources) {
    sim::Rng rng(6);
    auto bl = Blacklist::synthesize(100, rng);
    TrafficSpec spec;
    spec.attack_fraction = 0.25;
    TraceGenerator gen(spec, nullptr, &bl);
    int attacks = 0;
    for (int i = 0; i < 1000; ++i) {
        auto p = gen.next();
        auto parsed = parse_packet(*p);
        EXPECT_EQ(p->is_attack, bl.contains(parsed->ipv4.src_ip));
        attacks += p->is_attack;
    }
    EXPECT_NEAR(attacks, 250, 60);
}

TEST(TraceGen, ReorderingCreatesFlowSeqInversions) {
    TrafficSpec spec;
    spec.reorder_fraction = 0.05;
    spec.udp_fraction = 0.0;
    spec.flow_count = 8;
    TraceGenerator gen(spec);
    std::map<uint32_t, uint64_t> last;
    int inversions = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        auto p = gen.next();
        uint32_t h = packet_flow_hash(*p);
        if (last.count(h) && p->flow_seq < last[h]) ++inversions;
        last[h] = std::max(last[h], p->flow_seq);
    }
    // ~5% of packets form a swapped pair -> one inversion each.
    EXPECT_NEAR(double(inversions) / n, 0.05, 0.02);
}

TEST(TraceGen, NoReorderingMeansMonotonicFlows) {
    TrafficSpec spec;
    spec.reorder_fraction = 0.0;
    spec.flow_count = 16;
    TraceGenerator gen(spec);
    std::map<uint32_t, uint64_t> last;
    for (int i = 0; i < 2000; ++i) {
        auto p = gen.next();
        uint32_t h = packet_flow_hash(*p);
        if (last.count(h)) {
            EXPECT_GT(p->flow_seq, last[h]);
        }
        last[h] = p->flow_seq;
    }
}

TEST(TraceGen, MinimumSizeEnforced) {
    TrafficSpec spec;
    spec.packet_size = 10;  // below headers
    TraceGenerator gen(spec);
    EXPECT_GE(gen.next()->size(), 62u);
}

}  // namespace
}  // namespace rosebud::net
