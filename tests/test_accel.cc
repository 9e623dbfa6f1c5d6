/// Accelerator tests: the firewall IP matcher (two-stage lookup verified
/// against the blacklist reference over random probes) and the Pigasus
/// string/port matcher (functional matching cross-validated against the
/// software baseline, the MMIO job protocol, timing, and runtime rule
/// reload, which stays per RPU although the matchers share one compile).

#include <gtest/gtest.h>

#include "accel/firewall.h"
#include "accel/pigasus.h"
#include "baseline/snort_model.h"
#include "mem/memory.h"
#include "net/tracegen.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace rosebud::accel {
namespace {

struct FakeRpu {
    mem::Memory pmem{"pmem", 1024 * 1024};
    mem::Memory amem{"amem", 256 * 1024};
    sim::Stats stats;
    uint64_t now = 0;

    rpu::AccelContext ctx() { return {pmem, amem, stats, now}; }

    void tick(rpu::Accelerator& a, unsigned cycles = 1) {
        for (unsigned i = 0; i < cycles; ++i) {
            ++now;
            auto c = ctx();
            a.tick(c);
        }
    }

    uint32_t read(rpu::Accelerator& a, uint32_t off) {
        uint32_t v = 0;
        auto c = ctx();
        a.mmio_read(off, v, c);
        return v;
    }

    void write(rpu::Accelerator& a, uint32_t off, uint32_t v) {
        auto c = ctx();
        a.mmio_write(off, v, c);
    }
};

/// The firmware-visible byte order: an LE load of the network-order bytes.
uint32_t
fw_view(uint32_t host_order_ip) {
    return host_order_ip >> 24 | (host_order_ip >> 8 & 0xff00) |
           (host_order_ip << 8 & 0xff0000) | host_order_ip << 24;
}

TEST(Firewall, LookupAgreesWithBlacklistReference) {
    sim::Rng rng(31);
    auto bl = net::Blacklist::synthesize(1050, rng);
    FirewallMatcher fw(bl);
    EXPECT_EQ(fw.entry_count(), 1050u);
    // Every entry matches.
    for (const auto& e : bl.entries()) EXPECT_TRUE(fw.lookup(e.prefix));
    // Random probes agree with the reference.
    for (int i = 0; i < 5000; ++i) {
        uint32_t ip = uint32_t(rng.next());
        EXPECT_EQ(fw.lookup(ip), bl.contains(ip)) << net::format_ipv4_addr(ip);
    }
}

TEST(Firewall, PrefixEntries) {
    net::Blacklist bl;
    bl.add(net::parse_ipv4_addr("192.168.0.0"), 16);
    FirewallMatcher fw(bl);
    EXPECT_TRUE(fw.lookup(net::parse_ipv4_addr("192.168.55.7")));
    EXPECT_FALSE(fw.lookup(net::parse_ipv4_addr("192.169.0.0")));
}

TEST(Firewall, MmioProtocolByteSwaps) {
    net::Blacklist bl;
    uint32_t bad = net::parse_ipv4_addr("66.77.88.99");
    bl.add(bad);
    FirewallMatcher fw(bl);
    FakeRpu rig;
    rig.write(fw, kFwRegSrcIp, fw_view(bad));
    rig.tick(fw, 2);
    EXPECT_EQ(rig.read(fw, kFwRegMatch), 1u);
    rig.write(fw, kFwRegSrcIp, fw_view(bad + 1));
    rig.tick(fw, 2);
    EXPECT_EQ(rig.read(fw, kFwRegMatch), 0u);
}

TEST(Firewall, ReadBeforeLatencyStillConsistent) {
    net::Blacklist bl;
    bl.add(0x01020304);
    FirewallMatcher fw(bl);
    FakeRpu rig;
    rig.write(fw, kFwRegSrcIp, fw_view(0x01020304));
    // Immediate read (the MMIO read itself takes longer than the 2-cycle
    // pipeline in the real system): result must still be correct.
    EXPECT_EQ(rig.read(fw, kFwRegMatch), 1u);
}

TEST(Firewall, ResourcesScaleWithEntries) {
    sim::Rng rng(1);
    auto small = net::Blacklist::synthesize(100, rng);
    auto large = net::Blacklist::synthesize(1050, rng);
    FirewallMatcher a(small), b(large);
    EXPECT_LT(a.resources().luts, b.resources().luts);
    // Calibrated to Table 4: 835 LUTs / 197 FFs at 1050 entries.
    EXPECT_NEAR(double(b.resources().luts), 835.0, 835.0 * 0.05);
    EXPECT_NEAR(double(b.resources().regs), 197.0, 197.0 * 0.05);
}

// --- Pigasus ---------------------------------------------------------------------

/// Raw port word as firmware passes it (LE load of two BE u16s).
uint32_t
raw_ports(uint16_t src, uint16_t dst) {
    return uint32_t(src >> 8) | uint32_t(src & 0xff) << 8 |
           uint32_t(dst >> 8) << 16 | uint32_t(dst & 0xff) << 24;
}

TEST(Pigasus, MatchPayloadAgreesWithSnortBaseline) {
    sim::Rng rng(17);
    auto rules = net::IdsRuleSet::synthesize(64, rng);
    PigasusMatcher pig(rules);
    baseline::SnortModel snort(rules);

    net::TrafficSpec spec;
    spec.packet_size = 512;
    spec.attack_fraction = 0.3;
    spec.seed = 17;
    net::TraceGenerator gen(spec, &rules);
    int agreements = 0;
    int matches = 0;
    for (int i = 0; i < 1000; ++i) {
        auto p = gen.next();
        auto parsed = net::parse_packet(*p);
        if (!parsed || parsed->payload_offset == 0) continue;
        uint16_t sport = parsed->has_tcp ? parsed->tcp.src_port : parsed->udp.src_port;
        uint16_t dport = parsed->has_tcp ? parsed->tcp.dst_port : parsed->udp.dst_port;
        auto sids = pig.match_payload(p->data.data() + parsed->payload_offset,
                                      parsed->payload_len, raw_ports(sport, dport),
                                      parsed->has_tcp);
        bool pig_hit = !sids.empty();
        bool snort_hit = snort.packet_matches(*p);
        EXPECT_EQ(pig_hit, snort_hit) << "packet " << i;
        agreements += (pig_hit == snort_hit);
        matches += pig_hit;
    }
    EXPECT_GT(matches, 100);
}

TEST(Pigasus, PortConstraintEnforced) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any 8080 (content:\"exploit123\"; sid:1;)\n");
    PigasusMatcher pig(rules);
    std::string payload = "aaaexploit123bbb";
    const uint8_t* d = reinterpret_cast<const uint8_t*>(payload.data());
    EXPECT_EQ(pig.match_payload(d, payload.size(), raw_ports(1000, 8080), true).size(), 1u);
    EXPECT_TRUE(pig.match_payload(d, payload.size(), raw_ports(1000, 8081), true).empty());
}

TEST(Pigasus, ProtocolGroupEnforced) {
    auto rules = net::IdsRuleSet::parse(
        "alert udp any any -> any any (content:\"dnsattack!\"; sid:2;)\n");
    PigasusMatcher pig(rules);
    std::string payload = "xxdnsattack!xx";
    const uint8_t* d = reinterpret_cast<const uint8_t*>(payload.data());
    EXPECT_EQ(pig.match_payload(d, payload.size(), 0, false).size(), 1u);
    EXPECT_TRUE(pig.match_payload(d, payload.size(), 0, true).empty());
}

TEST(Pigasus, AllContentsMustBePresent) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"firstpart\"; content:\"otherpart\"; "
        "sid:3;)\n");
    PigasusMatcher pig(rules);
    std::string both = "firstpart....otherpart";
    std::string one = "firstpart only here";
    EXPECT_EQ(pig.match_payload(reinterpret_cast<const uint8_t*>(both.data()), both.size(),
                                0, true)
                  .size(),
              1u);
    EXPECT_TRUE(pig.match_payload(reinterpret_cast<const uint8_t*>(one.data()), one.size(),
                                  0, true)
                    .empty());
}

TEST(Pigasus, JobProtocolDeliversRuleIdsAndEop) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"needle9876\"; sid:42;)\n");
    PigasusMatcher pig(rules);
    FakeRpu rig;
    std::string payload = "hay needle9876 hay";
    rig.pmem.write_block(0x1000, reinterpret_cast<const uint8_t*>(payload.data()),
                         uint32_t(payload.size()));

    rig.write(pig, kPigRegDmaAddr, 0x01001000);  // full RPU address
    rig.write(pig, kPigRegDmaLen, uint32_t(payload.size()));
    rig.write(pig, kPigRegPorts, 0);
    rig.write(pig, kPigRegStateH, 0x01ffffff);
    rig.write(pig, kPigRegSlot, 7);
    rig.write(pig, kPigRegCtrl, 1);

    EXPECT_EQ(rig.read(pig, kPigRegMatch), 0u);  // still streaming
    rig.tick(pig, 64);
    ASSERT_EQ(rig.read(pig, kPigRegMatch), 1u);
    EXPECT_EQ(rig.read(pig, kPigRegRuleId), 42u);
    EXPECT_EQ(rig.read(pig, kPigRegSlot), 7u);
    rig.write(pig, kPigRegCtrl, 2);  // release the match
    ASSERT_EQ(rig.read(pig, kPigRegMatch), 1u);
    EXPECT_EQ(rig.read(pig, kPigRegRuleId), 0u);  // end-of-packet marker
    rig.write(pig, kPigRegCtrl, 2);
    EXPECT_EQ(rig.read(pig, kPigRegMatch), 0u);
}

TEST(Pigasus, OutOfRangeDmaWindowCompletesWithEopOnly) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"needle9876\"; sid:42;)\n");
    // Many engines keep a 4 GiB stream short: (2^32 - 1) / 2^24 = 256 cycles.
    PigasusMatcher::Params params;
    params.engines = 1u << 24;
    PigasusMatcher pig(rules, params);
    FakeRpu rig;
    std::string needle = "needle9876";
    for (uint32_t off : {0x0u, 0x100u}) {
        rig.pmem.write_block(off, reinterpret_cast<const uint8_t*>(needle.data()),
                             uint32_t(needle.size()));
    }

    // Kick a job over the firmware-supplied window; returns the cycles
    // until its first result, then expects only the end-of-packet marker.
    auto run_job = [&](uint32_t addr, uint32_t len) {
        rig.write(pig, kPigRegDmaAddr, addr);
        rig.write(pig, kPigRegDmaLen, len);
        rig.write(pig, kPigRegStateH, 0x01ffffff);
        rig.write(pig, kPigRegSlot, 5);
        rig.write(pig, kPigRegCtrl, 1);
        unsigned cycles = 0;
        while (rig.read(pig, kPigRegMatch) == 0 && cycles < 100000) {
            rig.tick(pig);
            ++cycles;
        }
        EXPECT_EQ(rig.read(pig, kPigRegMatch), 1u);
        EXPECT_EQ(rig.read(pig, kPigRegRuleId), 0u);
        EXPECT_EQ(rig.read(pig, kPigRegSlot), 5u);
        rig.write(pig, kPigRegCtrl, 2);
        EXPECT_EQ(rig.read(pig, kPigRegMatch), 0u);
        return cycles;
    };

    // A 4 GiB length: stream cycles are computed in 64 bits, not wrapped to 0.
    EXPECT_GE(run_job(0x01000000, 0xffffffff), 256u);
    // A window whose end wraps past 2^32: 0x100 + 0xffffff40 = 0x40 mod 2^32.
    run_job(0x01000100, 0xffffff40);
}

TEST(Pigasus, StreamingTimeScalesWithPayload) {
    sim::Rng rng(5);
    auto rules = net::IdsRuleSet::synthesize(8, rng);
    PigasusMatcher pig(rules);
    FakeRpu rig;

    auto run_job = [&](uint32_t len) {
        rig.write(pig, kPigRegDmaAddr, 0x01000000);
        rig.write(pig, kPigRegDmaLen, len);
        rig.write(pig, kPigRegStateH, 0x01ffffff);
        rig.write(pig, kPigRegSlot, 1);
        rig.write(pig, kPigRegCtrl, 1);
        unsigned cycles = 0;
        while (rig.read(pig, kPigRegMatch) == 0 && cycles < 10000) {
            rig.tick(pig);
            ++cycles;
        }
        rig.write(pig, kPigRegCtrl, 2);  // pop EoP
        return cycles;
    };

    unsigned small = run_job(64);
    unsigned large = run_job(2048);
    // 16 B/cycle streaming: ~4 vs ~128 cycles + fixed pipeline.
    EXPECT_NEAR(double(large - small), (2048.0 - 64.0) / 16.0, 8.0);
}

TEST(Pigasus, RuntimeRuleReload) {
    auto rules_v1 = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"oldpattern\"; sid:1;)\n");
    auto rules_v2 = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"newpattern\"; sid:2;)\n");
    PigasusMatcher pig(rules_v1);
    std::string text = "xx oldpattern yy newpattern zz";
    const uint8_t* d = reinterpret_cast<const uint8_t*>(text.data());
    auto before = pig.match_payload(d, text.size(), 0, true);
    ASSERT_EQ(before.size(), 1u);
    EXPECT_EQ(before[0], 1u);
    pig.load_rules(rules_v2);  // the runtime-update capability Rosebud adds
    auto after = pig.match_payload(d, text.size(), 0, true);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0], 2u);
}

// Matchers built from one rule set share its compile, but a runtime
// update repoints only the matcher it is loaded into.
TEST(Pigasus, RuntimeRuleUpdateStaysPerRpu) {
    auto rules_v1 = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"oldpattern\"; sid:1;)\n");
    auto rules_v2 = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"newpattern\"; sid:2;)\n");
    std::string text = "xx newpattern zz";  // only v2 matches
    const uint8_t* d = reinterpret_cast<const uint8_t*>(text.data());
    for (int updated = 0; updated < 2; ++updated) {
        PigasusMatcher pig[2] = {PigasusMatcher(rules_v1), PigasusMatcher(rules_v1)};
        pig[updated].load_rules(rules_v2);
        EXPECT_EQ(pig[updated].match_payload(d, text.size(), 0, true),
                  std::vector<uint32_t>{2});
        EXPECT_TRUE(pig[1 - updated].match_payload(d, text.size(), 0, true).empty());
    }
}

// A rule set compiles once and shares the result until add() changes it;
// a copy taken before the add() keeps the old compile.
TEST(Pigasus, AddingARuleDropsTheCompile) {
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"alphapattern\"; sid:1;)\n");
    auto sids_of = [](const net::RuleMatcher& m, const std::string& text) {
        std::vector<uint32_t> sids;
        std::vector<net::PatternMatch> hits;
        m.match(reinterpret_cast<const uint8_t*>(text.data()), text.size(),
                net::FlowClass::kTcp, 80, sids, hits);
        return sids;
    };
    const std::string text = "xx alphapattern yy betapattern zz";
    auto before = rules.matcher();
    EXPECT_EQ(rules.matcher(), before);
    const net::IdsRuleSet copy = rules;

    rules.add(net::IdsRuleSet::parse(
                  "alert tcp any any -> any any (content:\"betapattern\"; sid:2;)\n")
                  .at(0));
    auto after = rules.matcher();
    EXPECT_NE(after, before);
    EXPECT_EQ(sids_of(*after, text), (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(sids_of(*before, text), std::vector<uint32_t>{1});
    EXPECT_EQ(copy.matcher(), before);
}

TEST(Pigasus, ResourcesMatchTable3AtSixteenEngines) {
    sim::Rng rng(5);
    auto rules = net::IdsRuleSet::synthesize(8, rng);
    PigasusMatcher pig(rules);
    auto fp = pig.resources();
    EXPECT_NEAR(double(fp.luts), 36012.0, 36012.0 * 0.05);
    EXPECT_NEAR(double(fp.regs), 49364.0, 49364.0 * 0.05);
    EXPECT_EQ(fp.bram, 56u);
    EXPECT_EQ(fp.uram, 22u);
    EXPECT_EQ(fp.dsp, 80u);
}

TEST(Pigasus, HalvingEnginesRoughlyHalvesLogic) {
    sim::Rng rng(5);
    auto rules = net::IdsRuleSet::synthesize(8, rng);
    PigasusMatcher::Params p16;
    PigasusMatcher::Params p32;
    p32.engines = 32;
    PigasusMatcher a(rules, p16), b(rules, p32);
    double ratio = double(b.resources().luts) / double(a.resources().luts);
    EXPECT_NEAR(ratio, 2.0, 0.1);
}

}  // namespace
}  // namespace rosebud::accel
