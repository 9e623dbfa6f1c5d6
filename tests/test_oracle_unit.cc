/// Unit tests for the golden oracle's reference stages: each stage is an
/// independent re-implementation of a device function, checked here
/// against hand-computed vectors and (where a device-side functional
/// entry point exists) cross-checked against the device implementation
/// on random inputs.

#include <gtest/gtest.h>

#include "accel/pigasus.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/rules.h"
#include "net/tracegen.h"
#include "oracle/oracle.h"
#include "sim/random.h"

using rosebud::oracle::DataplaneOracle;
using rosebud::oracle::OracleConfig;
using rosebud::oracle::Pipeline;
using rosebud::oracle::Prediction;

namespace net = rosebud::net;
namespace accel = rosebud::accel;
namespace lb = rosebud::lb;
namespace sim = rosebud::sim;

// --- prefix match -----------------------------------------------------------

TEST(OraclePrefixMatch, HandVectors) {
    net::Blacklist bl;
    bl.add(net::parse_ipv4_addr("203.0.113.7"), 32);
    bl.add(net::parse_ipv4_addr("198.51.100.0"), 24);
    bl.add(net::parse_ipv4_addr("16.0.0.0"), 4);

    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("203.0.113.7")));
    EXPECT_FALSE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("203.0.113.8")));
    // /24: the whole last octet matches, the neighbors do not.
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("198.51.100.0")));
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("198.51.100.255")));
    EXPECT_FALSE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("198.51.101.0")));
    EXPECT_FALSE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("198.51.99.255")));
    // /4 covers 16.0.0.0 - 31.255.255.255.
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("16.0.0.0")));
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("31.255.255.255")));
    EXPECT_FALSE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("32.0.0.0")));
    EXPECT_FALSE(DataplaneOracle::ref_prefix_match(bl, net::parse_ipv4_addr("15.255.255.255")));
}

TEST(OraclePrefixMatch, ZeroLengthPrefixMatchesEverything) {
    net::Blacklist bl;
    bl.add(0, 0);
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, 0));
    EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, 0xffffffff));
}

TEST(OraclePrefixMatch, AgreesWithDeviceLookup) {
    sim::Rng rng(7);
    net::Blacklist bl = net::Blacklist::synthesize(64, rng);
    for (int i = 0; i < 2000; ++i) {
        uint32_t ip = uint32_t(rng.next());
        EXPECT_EQ(DataplaneOracle::ref_prefix_match(bl, ip), bl.contains(ip)) << ip;
    }
    // Every entry itself must match.
    for (const auto& e : bl.entries()) {
        EXPECT_TRUE(DataplaneOracle::ref_prefix_match(bl, e.prefix));
    }
}

// --- CRC32C / flow hash -----------------------------------------------------

TEST(OracleFlowHash, Crc32cCheckValue) {
    // The canonical CRC32C check value (RFC 3720 appendix / Castagnoli).
    const uint8_t msg[9] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(DataplaneOracle::ref_crc32c(msg, 9), 0xE3069283u);
    EXPECT_EQ(net::crc32c(msg, 9), 0xE3069283u);
}

TEST(OracleFlowHash, Crc32cAgreesWithTableDriven) {
    sim::Rng rng(11);
    for (int len = 0; len < 64; ++len) {
        std::vector<uint8_t> buf(static_cast<size_t>(len), 0);
        for (auto& b : buf) b = uint8_t(rng.next());
        EXPECT_EQ(DataplaneOracle::ref_crc32c(buf.data(), buf.size()),
                  net::crc32c(buf.data(), buf.size()));
    }
}

TEST(OracleFlowHash, AgreesWithPacketFlowHash) {
    sim::Rng rng(13);
    for (int i = 0; i < 400; ++i) {
        net::PacketBuilder b;
        uint32_t src = uint32_t(rng.next());
        uint32_t dst = uint32_t(rng.next());
        uint16_t sp = uint16_t(rng.range(1, 65535));
        uint16_t dp = uint16_t(rng.range(1, 65535));
        b.ipv4(src, dst);
        if (i % 2) {
            b.tcp(sp, dp, 1);
        } else {
            b.udp(sp, dp);
        }
        b.payload_str("flow-hash-check");
        b.frame_size(96);
        net::PacketPtr p = b.build();
        EXPECT_EQ(DataplaneOracle::ref_flow_hash(p->data), net::packet_flow_hash(*p));
    }
}

TEST(OracleFlowHash, SymmetricAcrossDirections) {
    net::PacketBuilder fwd;
    fwd.ipv4(net::parse_ipv4_addr("10.1.2.3"), net::parse_ipv4_addr("10.9.8.7"));
    fwd.tcp(1111, 2222, 5);
    fwd.payload_str("x");
    fwd.frame_size(64);

    net::PacketBuilder rev;
    rev.ipv4(net::parse_ipv4_addr("10.9.8.7"), net::parse_ipv4_addr("10.1.2.3"));
    rev.tcp(2222, 1111, 5);
    rev.payload_str("x");
    rev.frame_size(64);

    uint32_t hf = DataplaneOracle::ref_flow_hash(fwd.build()->data);
    uint32_t hr = DataplaneOracle::ref_flow_hash(rev.build()->data);
    EXPECT_EQ(hf, hr);
    EXPECT_NE(hf, 0u);
}

TEST(OracleFlowHash, NonIpAndTruncatedFramesHashToZero) {
    std::vector<uint8_t> arp(64, 0);
    arp[12] = 0x08;
    arp[13] = 0x06;  // EtherType ARP
    EXPECT_EQ(DataplaneOracle::ref_flow_hash(arp), 0u);

    std::vector<uint8_t> runt(10, 0);
    EXPECT_EQ(DataplaneOracle::ref_flow_hash(runt), 0u);
}

// --- hash steering ----------------------------------------------------------

TEST(OracleHashSteer, NthSetBit) {
    // eligible = {1, 3, 6} -> index hash % 3 into that list.
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(0, 0b01001010, 8), 1u);
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(1, 0b01001010, 8), 3u);
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(2, 0b01001010, 8), 6u);
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(3, 0b01001010, 8), 1u);
    // Mask bits above rpu_count are ignored.
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(0, 0xffffffff, 4), 0u);
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(5, 0xffffffff, 4), 1u);
    // No eligible RPU.
    EXPECT_EQ(DataplaneOracle::ref_hash_steer(123, 0, 8), 0xffu);
}

// --- string / rule matching -------------------------------------------------

namespace {

net::IdsRule
make_rule(uint32_t sid, net::RuleProto proto, std::optional<uint16_t> dport,
          std::vector<std::pair<std::string, bool>> contents) {
    net::IdsRule r;
    r.sid = sid;
    r.proto = proto;
    r.dst_port = dport;
    for (auto& [s, nocase] : contents) {
        net::ContentPattern c;
        c.bytes.assign(s.begin(), s.end());
        c.nocase = nocase;
        r.contents.push_back(std::move(c));
    }
    return r;
}

}  // namespace

TEST(OracleRuleMatch, HandVectors) {
    net::IdsRuleSet rules;
    rules.add(make_rule(100, net::RuleProto::kTcp, 80, {{"evil", false}}));
    rules.add(make_rule(101, net::RuleProto::kUdp, std::nullopt, {{"BadThing", true}}));
    rules.add(make_rule(102, net::RuleProto::kAny, std::nullopt,
                        {{"part-one", false}, {"part-two", false}}));

    auto match = [&](const std::string& payload, uint16_t dport, bool tcp) {
        return DataplaneOracle::ref_rule_match(
            rules, reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
            dport, tcp);
    };

    EXPECT_EQ(match("pure evil here", 80, true), (std::vector<uint32_t>{100}));
    // Wrong port: no match.
    EXPECT_TRUE(match("pure evil here", 81, true).empty());
    // Wrong protocol: no match.
    EXPECT_TRUE(match("pure evil here", 80, false).empty());
    // Case-sensitive content must not fold.
    EXPECT_TRUE(match("pure EVIL here", 80, true).empty());

    // nocase matches any casing, UDP only.
    EXPECT_EQ(match("xxBADTHINGxx", 5, false), (std::vector<uint32_t>{101}));
    EXPECT_EQ(match("xxbadthingxx", 5, false), (std::vector<uint32_t>{101}));
    EXPECT_TRUE(match("xxbadthingxx", 5, true).empty());

    // Both contents must be present, in any order/position.
    EXPECT_EQ(match("part-two ... part-one", 9, true), (std::vector<uint32_t>{102}));
    EXPECT_TRUE(match("part-one only", 9, true).empty());

    // Multiple rules, ascending sids.
    EXPECT_EQ(match("evil part-one part-two", 80, true),
              (std::vector<uint32_t>{100, 102}));
}

TEST(OracleRuleMatch, AgreesWithPigasusMatcher) {
    sim::Rng rng(21);
    net::IdsRuleSet rules = net::IdsRuleSet::synthesize(32, rng);
    accel::PigasusMatcher matcher(rules);

    // Random payloads seeded with real rule contents at random offsets so
    // matches happen, on both sides of the matcher's interleaved-scan split.
    for (size_t size : {16, 200, 970, 1500, 4000}) {
        for (int i = 0; i < 200; ++i) {
            std::vector<uint8_t> payload(size);
            for (auto& b : payload) b = uint8_t(rng.range(0x20, 0x7e));
            const net::IdsRule& r = rules.at(rng.below(rules.size()));
            for (const auto& c : r.contents) {
                if (c.bytes.size() > payload.size()) continue;
                size_t off = rng.below(payload.size() - c.bytes.size() + 1);
                std::copy(c.bytes.begin(), c.bytes.end(), payload.begin() + off);
            }
            bool tcp = rng.chance(0.5);
            uint16_t dport = r.dst_port ? *r.dst_port : uint16_t(rng.range(1, 65535));
            // Raw port word as firmware passes it: network-order bytes read LE.
            uint8_t port_bytes[4];
            net::store_be16(port_bytes, 999);
            net::store_be16(port_bytes + 2, dport);
            uint32_t raw_ports = uint32_t(port_bytes[0]) | uint32_t(port_bytes[1]) << 8 |
                                 uint32_t(port_bytes[2]) << 16 |
                                 uint32_t(port_bytes[3]) << 24;

            EXPECT_EQ(DataplaneOracle::ref_rule_match(rules, payload.data(), payload.size(),
                                                      dport, tcp),
                      matcher.match_payload(payload.data(), payload.size(), raw_ports, tcp))
                << size << " B payload, case " << i;
        }
    }
}

// --- NAT checksum + mapping structure ---------------------------------------

TEST(OracleNat, ChecksumFixupMatchesFullRecompute) {
    sim::Rng rng(31);
    for (int i = 0; i < 200; ++i) {
        // Build a real IPv4 header, then rewrite the source address and
        // compare the incremental fixup to a from-scratch checksum.
        net::PacketBuilder b;
        uint32_t src = 0x0a000000 | uint32_t(rng.below(1 << 24));
        uint32_t dst = uint32_t(rng.next());
        b.ipv4(src, dst);
        b.udp(1234, 80);
        b.payload_str("checksum");
        b.frame_size(64);
        std::vector<uint8_t> f = b.build()->data;

        ASSERT_EQ(net::internet_checksum(&f[14], 20), 0);  // builder checksum valid

        uint32_t new_src = 0xc6336401;
        uint16_t fixed = net::checksum_fixup32(net::load_be16(&f[24]), src, new_src);
        net::store_be32(&f[26], new_src);
        net::store_be16(&f[24], fixed);
        EXPECT_EQ(net::internet_checksum(&f[14], 20), 0) << "fixup broke the checksum";
    }
}

TEST(OracleNat, OutboundPredictionAndStructuralCheck) {
    OracleConfig cfg;
    cfg.pipeline = Pipeline::kNat;
    cfg.lb_policy = lb::Policy::kRoundRobin;
    cfg.rpu_count = 8;
    DataplaneOracle oracle(cfg);

    net::PacketBuilder b;
    b.ipv4(net::parse_ipv4_addr("10.1.2.3"), net::parse_ipv4_addr("192.0.2.50"));
    b.tcp(4321, 443, 7);
    b.payload_str("nat-me");
    b.frame_size(80);
    std::vector<uint8_t> frame = b.build()->data;

    Prediction p = oracle.predict(frame, net::Iface::kPort0);
    ASSERT_EQ(p.outcome, Prediction::Outcome::kForwardWire);
    EXPECT_EQ(p.out_iface, net::Iface::kPort1);
    ASSERT_TRUE(p.nat_outbound);
    ASSERT_TRUE(p.exact_bytes);
    ASSERT_EQ(p.wildcards.size(), 1u);
    EXPECT_EQ(p.wildcards[0].offset, 34u);

    // Source IP rewritten to the external address, checksum still valid.
    EXPECT_EQ(net::load_be32(&p.out_bytes[26]), cfg.nat.external_ip);
    EXPECT_EQ(net::internet_checksum(&p.out_bytes[14], 20), 0);

    // A device output with any in-slice port passes...
    std::vector<uint8_t> out = p.out_bytes;
    net::store_be16(&out[34], uint16_t(cfg.nat.port_base + 17));
    std::string why;
    EXPECT_TRUE(oracle.check_output(p, frame, out, false, &why)) << why;
    // ...a port outside the engine's slice fails...
    net::store_be16(&out[34], uint16_t(cfg.nat.port_base - 1));
    EXPECT_FALSE(oracle.check_output(p, frame, out, false, &why));
    // ...and so does any stray byte flip.
    net::store_be16(&out[34], uint16_t(cfg.nat.port_base));
    out[50] ^= 1;
    EXPECT_FALSE(oracle.check_output(p, frame, out, false, &why));
}

TEST(OracleNat, InboundStructuralCheck) {
    OracleConfig cfg;
    cfg.pipeline = Pipeline::kNat;
    DataplaneOracle oracle(cfg);

    net::PacketBuilder b;
    b.ipv4(net::parse_ipv4_addr("192.0.2.50"), cfg.nat.external_ip);
    b.tcp(443, uint16_t(cfg.nat.port_base + 3), 9);
    b.payload_str("reply");
    b.frame_size(80);
    std::vector<uint8_t> frame = b.build()->data;

    Prediction p = oracle.predict(frame, net::Iface::kPort1);
    ASSERT_TRUE(p.nat_inbound);
    EXPECT_EQ(p.out_iface, net::Iface::kPort0);

    // Simulate the device's reverse rewrite: dst -> internal, with the
    // RFC 1624 incremental checksum update.
    std::vector<uint8_t> out = frame;
    uint32_t int_ip = net::parse_ipv4_addr("10.7.7.7");
    uint16_t fixed = net::checksum_fixup32(net::load_be16(&frame[24]),
                                           cfg.nat.external_ip, int_ip);
    net::store_be32(&out[30], int_ip);
    net::store_be16(&out[24], fixed);
    net::store_be16(&out[36], 4321);
    std::string why;
    EXPECT_TRUE(oracle.check_output(p, frame, out, false, &why)) << why;

    // Rewriting to a non-internal address is a divergence.
    std::vector<uint8_t> bad = frame;
    uint32_t ext = net::parse_ipv4_addr("192.0.2.99");
    net::store_be32(&bad[30], ext);
    net::store_be16(&bad[24], net::checksum_fixup32(net::load_be16(&frame[24]),
                                                    cfg.nat.external_ip, ext));
    EXPECT_FALSE(oracle.check_output(p, frame, bad, false, &why));

    // A stale (non-incremental) checksum is a divergence.
    std::vector<uint8_t> stale = out;
    net::store_be16(&stale[24], net::load_be16(&frame[24]));
    EXPECT_FALSE(oracle.check_output(p, frame, stale, false, &why));
}

// --- end-to-end prediction shapes -------------------------------------------

TEST(OraclePredict, ForwarderStripsHashWordUnderHashPolicy) {
    OracleConfig cfg;
    cfg.pipeline = Pipeline::kForwarder;
    cfg.lb_policy = lb::Policy::kHash;
    DataplaneOracle oracle(cfg);

    net::PacketBuilder b;
    b.ipv4(net::parse_ipv4_addr("10.0.0.1"), net::parse_ipv4_addr("10.0.0.2"));
    b.udp(1000, 2000);
    b.payload_str("fwd");
    b.frame_size(64);
    std::vector<uint8_t> frame = b.build()->data;

    Prediction p = oracle.predict(frame, net::Iface::kPort1);
    EXPECT_EQ(p.out_iface, net::Iface::kPort0);
    // The LB prepends the hash word in the slot; the wire frame leaves
    // without it.
    EXPECT_TRUE(p.hash_prepended);
    EXPECT_EQ(p.out_bytes, frame);
}

TEST(OraclePredict, FirewallDropsBlacklistedAndNonIp) {
    net::Blacklist bl;
    bl.add(net::parse_ipv4_addr("203.0.113.0"), 24);
    OracleConfig cfg;
    cfg.pipeline = Pipeline::kFirewall;
    cfg.blacklist = &bl;
    DataplaneOracle oracle(cfg);

    net::PacketBuilder bad;
    bad.ipv4(net::parse_ipv4_addr("203.0.113.200"), net::parse_ipv4_addr("10.0.0.1"));
    bad.tcp(1, 2, 3);
    bad.payload_str("x");
    bad.frame_size(64);
    Prediction p = oracle.predict(bad.build()->data, net::Iface::kPort0);
    EXPECT_EQ(p.outcome, Prediction::Outcome::kDrop);
    EXPECT_EQ(p.drop_reason, Prediction::DropReason::kBlacklistedSrc);

    std::vector<uint8_t> arp(64, 0);
    arp[12] = 0x08;
    arp[13] = 0x06;
    p = oracle.predict(arp, net::Iface::kPort0);
    EXPECT_EQ(p.outcome, Prediction::Outcome::kDrop);
    EXPECT_EQ(p.drop_reason, Prediction::DropReason::kNonIp);

    net::PacketBuilder ok;
    ok.ipv4(net::parse_ipv4_addr("10.5.5.5"), net::parse_ipv4_addr("10.0.0.1"));
    ok.tcp(1, 2, 3);
    ok.payload_str("x");
    ok.frame_size(64);
    std::vector<uint8_t> frame = ok.build()->data;
    p = oracle.predict(frame, net::Iface::kPort0);
    EXPECT_EQ(p.outcome, Prediction::Outcome::kForwardWire);
    EXPECT_EQ(p.out_bytes, frame);
}

TEST(OraclePredict, PigasusHostRecordLayouts) {
    net::IdsRuleSet rules;
    rules.add(make_rule(700, net::RuleProto::kTcp, std::nullopt, {{"attack!", false}}));

    // Hardware-reorder pipeline: frame padded to 4 B, then sid words.
    OracleConfig hw;
    hw.pipeline = Pipeline::kPigasusHwReorder;
    hw.rules = &rules;
    DataplaneOracle hw_oracle(hw);

    net::PacketBuilder b;
    b.ipv4(net::parse_ipv4_addr("10.1.1.1"), net::parse_ipv4_addr("10.2.2.2"));
    b.tcp(1111, 80, 1);
    b.payload_str("..attack!..");
    b.frame_size(65);  // deliberately unaligned
    std::vector<uint8_t> frame = b.build()->data;
    ASSERT_EQ(frame.size() % 4, 1u);

    Prediction p = hw_oracle.predict(frame, net::Iface::kPort0);
    ASSERT_EQ(p.outcome, Prediction::Outcome::kDeliverHost);
    ASSERT_EQ(p.matched_sids, (std::vector<uint32_t>{700}));

    size_t padded = (frame.size() + 3) & ~size_t(3);
    std::vector<uint8_t> record(padded + 4, 0xee);  // pad bytes arbitrary
    std::copy(frame.begin(), frame.end(), record.begin());
    record[padded + 0] = 700 & 0xff;
    record[padded + 1] = 700 >> 8;
    record[padded + 2] = 0;
    record[padded + 3] = 0;
    std::string why;
    EXPECT_TRUE(hw_oracle.check_output(p, frame, record, true, &why)) << why;

    // Wrong sid fails; truncated record fails.
    std::vector<uint8_t> wrong = record;
    wrong[padded] ^= 1;
    EXPECT_FALSE(hw_oracle.check_output(p, frame, wrong, true, &why));
    std::vector<uint8_t> shorter(record.begin(), record.end() - 4);
    EXPECT_FALSE(hw_oracle.check_output(p, frame, shorter, true, &why));

    // Software-reorder pipeline: pad computed over the hashed length,
    // hash stripped; a punt record (hash word ++ frame) is also legal.
    OracleConfig sw;
    sw.pipeline = Pipeline::kPigasusSwReorder;
    sw.lb_policy = lb::Policy::kHash;
    sw.rules = &rules;
    DataplaneOracle sw_oracle(sw);

    Prediction q = sw_oracle.predict(frame, net::Iface::kPort0);
    ASSERT_EQ(q.outcome, Prediction::Outcome::kDeliverHost);
    ASSERT_TRUE(q.may_punt_to_host);

    size_t sw_padded = ((frame.size() + 4 + 3) & ~size_t(3)) - 4;
    std::vector<uint8_t> sw_record(sw_padded + 4, 0xee);
    std::copy(frame.begin(), frame.end(), sw_record.begin());
    sw_record[sw_padded + 0] = 700 & 0xff;
    sw_record[sw_padded + 1] = 700 >> 8;
    sw_record[sw_padded + 2] = 0;
    sw_record[sw_padded + 3] = 0;
    EXPECT_TRUE(sw_oracle.check_output(q, frame, sw_record, true, &why)) << why;

    std::vector<uint8_t> punt(frame.size() + 4);
    punt[0] = uint8_t(q.lb_hash);
    punt[1] = uint8_t(q.lb_hash >> 8);
    punt[2] = uint8_t(q.lb_hash >> 16);
    punt[3] = uint8_t(q.lb_hash >> 24);
    std::copy(frame.begin(), frame.end(), punt.begin() + 4);
    EXPECT_TRUE(sw_oracle.check_output(q, frame, punt, true, &why)) << why;

    // Punt with a corrupted hash word fails.
    punt[0] ^= 0xff;
    EXPECT_FALSE(sw_oracle.check_output(q, frame, punt, true, &why));
}
