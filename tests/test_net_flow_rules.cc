/// Flow hashing, rule parsing (IDS + firewall blacklist), and the
/// Aho-Corasick matcher (verified against a naive reference).

#include <gtest/gtest.h>

#include <algorithm>

#include "net/flow.h"
#include "net/patmatch.h"
#include "net/rules.h"
#include "sim/log.h"
#include "sim/random.h"

namespace rosebud::net {
namespace {

TEST(Crc32c, KnownVector) {
    // Standard CRC32C check value for "123456789".
    const char* s = "123456789";
    EXPECT_EQ(crc32c(reinterpret_cast<const uint8_t*>(s), 9), 0xe3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(nullptr, 0), 0u); }

TEST(FlowHash, SymmetricInDirection) {
    sim::Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        FiveTuple fwd;
        fwd.src_ip = uint32_t(rng.next());
        fwd.dst_ip = uint32_t(rng.next());
        fwd.src_port = uint16_t(rng.next());
        fwd.dst_port = uint16_t(rng.next());
        fwd.protocol = kIpProtoTcp;
        FiveTuple rev = fwd;
        std::swap(rev.src_ip, rev.dst_ip);
        std::swap(rev.src_port, rev.dst_port);
        EXPECT_EQ(flow_hash(fwd), flow_hash(rev));
    }
}

TEST(FlowHash, DistinguishesFlows) {
    FiveTuple a{1, 2, 3, 4, 6};
    FiveTuple b{1, 2, 3, 5, 6};
    EXPECT_NE(flow_hash(a), flow_hash(b));
}

TEST(FlowHash, ProtocolMatters) {
    FiveTuple a{1, 2, 3, 4, kIpProtoTcp};
    FiveTuple b{1, 2, 3, 4, kIpProtoUdp};
    EXPECT_NE(flow_hash(a), flow_hash(b));
}

TEST(FlowHash, PacketHashMatchesTupleHash) {
    PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).tcp(1000, 2000).frame_size(64);
    auto p = b.build();
    auto parsed = parse_packet(*p);
    EXPECT_EQ(packet_flow_hash(*p), flow_hash(extract_five_tuple(*parsed)));
    EXPECT_NE(packet_flow_hash(*p), 0u);
}

TEST(FlowHash, NonIpIsZero) {
    auto p = make_packet(64);
    EXPECT_EQ(packet_flow_hash(*p), 0u);
}

// --- IDS rules ---------------------------------------------------------------

TEST(IdsRules, ParseBasic) {
    auto set = IdsRuleSet::parse(
        "# comment line\n"
        "alert tcp any any -> any 80 (msg:\"web exploit\"; content:\"evil\"; sid:100;)\n"
        "\n"
        "alert udp any any -> any any (content:\"dns-bad\"; sid:101;)\n");
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.at(0).sid, 100u);
    EXPECT_EQ(set.at(0).proto, RuleProto::kTcp);
    ASSERT_TRUE(set.at(0).dst_port.has_value());
    EXPECT_EQ(*set.at(0).dst_port, 80);
    EXPECT_EQ(set.at(0).msg, "web exploit");
    ASSERT_EQ(set.at(0).contents.size(), 1u);
    EXPECT_EQ(std::string(set.at(0).contents[0].bytes.begin(),
                          set.at(0).contents[0].bytes.end()),
              "evil");
    EXPECT_EQ(set.at(1).proto, RuleProto::kUdp);
    EXPECT_FALSE(set.at(1).dst_port.has_value());
}

TEST(IdsRules, ParseHexContent) {
    auto set = IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"ab|00 FF|cd\"; sid:1;)\n");
    const auto& bytes = set.at(0).contents[0].bytes;
    ASSERT_EQ(bytes.size(), 6u);
    EXPECT_EQ(bytes[0], 'a');
    EXPECT_EQ(bytes[2], 0x00);
    EXPECT_EQ(bytes[3], 0xff);
    EXPECT_EQ(bytes[5], 'd');
}

TEST(IdsRules, ParseMultipleContentsAndNocase) {
    auto set = IdsRuleSet::parse(
        "alert tcp any any -> any any "
        "(content:\"short\"; content:\"muchlongerpattern\"; nocase; sid:5;)\n");
    ASSERT_EQ(set.at(0).contents.size(), 2u);
    EXPECT_TRUE(set.at(0).contents[1].nocase);
    EXPECT_FALSE(set.at(0).contents[0].nocase);
    // Fast pattern is the longest content.
    EXPECT_EQ(set.at(0).fast_pattern().bytes.size(), 17u);
}

TEST(IdsRules, QuotedSemicolonInMsg) {
    auto set = IdsRuleSet::parse(
        "alert tcp any any -> any any (msg:\"a;b\"; content:\"x1y2z3\"; sid:9;)\n");
    EXPECT_EQ(set.at(0).msg, "a;b");
}

TEST(IdsRules, MalformedRulesAreFatal) {
    EXPECT_THROW(IdsRuleSet::parse("alert tcp any any -> any any content\n"),
                 sim::FatalError);
    EXPECT_THROW(
        IdsRuleSet::parse("alert tcp any any -> any any (content:\"x\";)\n"),
        sim::FatalError);  // no sid
    EXPECT_THROW(IdsRuleSet::parse("alert tcp any any -> any any (sid:3;)\n"),
                 sim::FatalError);  // no content
    EXPECT_THROW(
        IdsRuleSet::parse("log tcp any any -> any any (content:\"x\"; sid:3;)\n"),
        sim::FatalError);  // unsupported action
}

TEST(IdsRules, SynthesizeDeterministic) {
    sim::Rng a(7), b(7);
    auto s1 = IdsRuleSet::synthesize(50, a);
    auto s2 = IdsRuleSet::synthesize(50, b);
    ASSERT_EQ(s1.size(), 50u);
    for (size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(s1.at(i).sid, s2.at(i).sid);
        EXPECT_EQ(s1.at(i).fast_pattern().bytes, s2.at(i).fast_pattern().bytes);
    }
}

TEST(IdsRules, FindSid) {
    sim::Rng rng(7);
    auto set = IdsRuleSet::synthesize(10, rng);
    EXPECT_NE(set.find_sid(1000), nullptr);
    EXPECT_EQ(set.find_sid(99999), nullptr);
}

// --- blacklist ------------------------------------------------------------------

TEST(Blacklist, ParseMixedFormats) {
    auto bl = Blacklist::parse(
        "# emerging threats style\n"
        "block drop from 1.2.3.4 to any\n"
        "5.6.7.0/24\n"
        "9.9.9.9\n");
    EXPECT_EQ(bl.size(), 3u);
    EXPECT_TRUE(bl.contains(parse_ipv4_addr("1.2.3.4")));
    EXPECT_FALSE(bl.contains(parse_ipv4_addr("1.2.3.5")));
    EXPECT_TRUE(bl.contains(parse_ipv4_addr("5.6.7.200")));
    EXPECT_FALSE(bl.contains(parse_ipv4_addr("5.6.8.1")));
    EXPECT_TRUE(bl.contains(parse_ipv4_addr("9.9.9.9")));
}

TEST(Blacklist, PrefixMasking) {
    Blacklist bl;
    bl.add(parse_ipv4_addr("10.1.2.255"), 24);  // low bits masked off
    EXPECT_TRUE(bl.contains(parse_ipv4_addr("10.1.2.0")));
    EXPECT_TRUE(bl.contains(parse_ipv4_addr("10.1.2.99")));
    EXPECT_FALSE(bl.contains(parse_ipv4_addr("10.1.3.0")));
}

TEST(Blacklist, SynthesizeAvoidsSafeSpace) {
    sim::Rng rng(3);
    auto bl = Blacklist::synthesize(1050, rng);
    EXPECT_EQ(bl.size(), 1050u);
    for (const auto& e : bl.entries()) {
        EXPECT_NE(e.prefix >> 24, 10u) << "entry in the 10/8 safe range";
    }
}

TEST(Blacklist, BadPrefixLengthFatal) {
    Blacklist bl;
    EXPECT_THROW(bl.add(1, 33), sim::FatalError);
}

// --- Aho-Corasick ----------------------------------------------------------------

/// Naive multi-pattern reference; `nocase` compares ASCII-folded bytes.
std::vector<PatternMatch>
naive_scan(const std::vector<std::vector<uint8_t>>& patterns, const uint8_t* data,
           size_t len, bool nocase = false) {
    auto eq = [nocase](uint8_t a, uint8_t b) {
        return nocase ? fold_case(a) == fold_case(b) : a == b;
    };
    std::vector<PatternMatch> out;
    for (size_t i = 0; i < len; ++i) {
        for (size_t pi = 0; pi < patterns.size(); ++pi) {
            const auto& p = patterns[pi];
            if (p.empty() || i + 1 < p.size()) continue;
            if (std::equal(p.begin(), p.end(), data + i + 1 - p.size(), eq)) {
                out.push_back({uint32_t(pi), uint32_t(i + 1)});
            }
        }
    }
    return out;
}

/// Shape of the random inputs of one check_against_naive run.
struct RandomCase {
    size_t min_text, max_text;  ///< text length range
    size_t max_pattern;         ///< pattern lengths are 1..max_pattern
    unsigned alphabet;          ///< letters 'a'..('a' + alphabet - 1)
    bool nocase;                ///< nocase automaton; mixed-case patterns and text
    size_t plants;              ///< copies of each pattern written into the text
};

/// Scan random texts with random patterns and compare with naive_scan:
/// the same matches, emitted with end offsets ascending.
void
check_against_naive(sim::Rng& rng, int trials, const RandomCase& c) {
    auto letter = [&] {
        uint8_t b = uint8_t('a' + rng.below(c.alphabet));
        return c.nocase && rng.chance(0.5) ? uint8_t(b - 32) : b;
    };
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<std::vector<uint8_t>> patterns;
        AhoCorasick ac(c.nocase);
        size_t n = 1 + rng.below(8);
        for (size_t i = 0; i < n; ++i) {
            std::vector<uint8_t> p(1 + rng.below(c.max_pattern));
            for (auto& b : p) b = letter();
            patterns.push_back(p);
            ac.add_pattern(p, uint32_t(i));
        }
        ac.finalize();

        size_t len = c.min_text == c.max_text
                         ? c.min_text
                         : c.min_text + rng.below(c.max_text - c.min_text + 1);
        std::vector<uint8_t> text(len);
        for (auto& b : text) b = letter();
        for (const auto& p : patterns) {
            for (size_t k = 0; k < c.plants && p.size() <= len; ++k) {
                size_t off = rng.below(len - p.size() + 1);
                std::copy(p.begin(), p.end(), text.begin() + off);
            }
        }

        std::vector<PatternMatch> got;
        ac.scan(text.data(), text.size(), got);
        auto want = naive_scan(patterns, text.data(), text.size(), c.nocase);

        EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), [](auto& a, auto& b) {
            return a.end_offset < b.end_offset;
        })) << "trial " << trial << ", text " << len << " B: not in serial order";
        auto key = [](const PatternMatch& m) {
            return uint64_t(m.end_offset) << 32 | m.pattern_id;
        };
        std::sort(got.begin(), got.end(),
                  [&](auto& a, auto& b) { return key(a) < key(b); });
        std::sort(want.begin(), want.end(),
                  [&](auto& a, auto& b) { return key(a) < key(b); });
        ASSERT_EQ(got.size(), want.size()) << "trial " << trial << ", text " << len << " B";
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].pattern_id, want[i].pattern_id);
            EXPECT_EQ(got[i].end_offset, want[i].end_offset);
        }
    }
}

TEST(AhoCorasick, MatchesNaiveReferenceOnRandomInput) {
    sim::Rng rng(21);
    check_against_naive(rng, 30, {200, 200, 6, 4, false, 0});
    // Texts of 0-5000 B cross the interleaved-scan split, and patterns up
    // to 16 B over a 3-4 letter alphabet match across every stream
    // boundary; nocase patterns meet mixed-case text.
    for (unsigned alphabet : {3u, 4u}) {
        check_against_naive(rng, 40, {0, 5000, 16, alphabet, false, 3});
        check_against_naive(rng, 40, {0, 5000, 16, alphabet, true, 3});
    }
}

TEST(AhoCorasick, OverlappingAndNestedPatterns) {
    AhoCorasick ac;
    ac.add_pattern({'a', 'b'}, 0);
    ac.add_pattern({'b', 'c'}, 1);
    ac.add_pattern({'a', 'b', 'c'}, 2);
    ac.add_pattern({'c'}, 3);
    ac.finalize();
    std::string text = "abc";
    std::vector<PatternMatch> out;
    ac.scan(reinterpret_cast<const uint8_t*>(text.data()), text.size(), out);
    // ab@2, bc@3, abc@3, c@3.
    EXPECT_EQ(out.size(), 4u);
}

TEST(AhoCorasick, EmptyPatternIgnored) {
    AhoCorasick ac;
    ac.add_pattern({}, 0);
    ac.add_pattern({'a', 'a', 'a', 'a'}, 1);
    ac.finalize();
    EXPECT_EQ(ac.pattern_count(), 1u);
}

TEST(AhoCorasick, ScanEmptyText) {
    AhoCorasick ac;
    ac.add_pattern({'a'}, 0);
    ac.finalize();
    std::vector<PatternMatch> out;
    EXPECT_EQ(ac.scan(nullptr, 0, out), 0u);
}

}  // namespace
}  // namespace rosebud::net
