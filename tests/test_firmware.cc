/// Firmware programs on full systems: the firewall case study (blacklisted
/// sources dropped, safe forwarded, non-IP dropped), the Pigasus firmware
/// (matches appended + redirected to host, safe traffic forwarded, SW
/// reorder strips the prepended hash), the two-step loopback relay, and
/// the broadcast sender/sink pair.

#include <gtest/gtest.h>

#include <memory>

#include "accel/firewall.h"
#include "accel/pigasus.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/flow.h"
#include "net/headers.h"

namespace rosebud {
namespace {

TEST(FirmwareImages, AllProgramsAssemble) {
    EXPECT_GT(fwlib::forwarder().image.size(), 8u);
    EXPECT_GT(fwlib::two_step_forwarder(16).image.size(), 20u);
    EXPECT_GT(fwlib::firewall().image.size(), 20u);
    EXPECT_GT(fwlib::pigasus_hw_reorder().image.size(), 50u);
    EXPECT_GT(fwlib::pigasus_sw_reorder().image.size(), 90u);
    EXPECT_GT(fwlib::broadcast_sender(100).image.size(), 10u);
    EXPECT_GT(fwlib::broadcast_sink().image.size(), 10u);
}

struct FirewallSystem {
    System sys;
    net::Blacklist blacklist;

    FirewallSystem() : sys(make_config()) {
        sim::Rng rng(77);
        blacklist = net::Blacklist::synthesize(64, rng);
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::FirewallMatcher>(blacklist); });
        auto fw = fwlib::firewall();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(300);
    }

    static SystemConfig make_config() {
        SystemConfig cfg;
        cfg.rpu_count = 4;
        return cfg;
    }
};

TEST(FirewallFirmware, DropsBlacklistedForwardsSafe) {
    FirewallSystem f;
    // Safe packet.
    net::PacketBuilder safe;
    safe.ipv4(0x0a000001, 0x0a000002).tcp(1, 2).frame_size(128);
    // Blacklisted source.
    net::PacketBuilder bad;
    bad.ipv4(f.blacklist.entries()[0].prefix, 0x0a000002).tcp(1, 2).frame_size(128);

    ASSERT_TRUE(f.sys.fabric().mac_rx(0, safe.build()));
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, bad.build()));
    f.sys.run_cycles(2000);

    EXPECT_EQ(f.sys.sink(1).frames(), 1u);  // only the safe packet
    uint64_t drops = 0;
    for (unsigned i = 0; i < 4; ++i) {
        drops += f.sys.stats().get("rpu" + std::to_string(i) + ".dropped_packets");
    }
    EXPECT_EQ(drops, 1u);
}

TEST(FirewallFirmware, DropsNonIpv4) {
    FirewallSystem f;
    auto p = net::make_packet(64);
    p->data[12] = 0x08;
    p->data[13] = 0x06;  // ARP
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p));
    f.sys.run_cycles(2000);
    EXPECT_EQ(f.sys.sink(0).frames() + f.sys.sink(1).frames(), 0u);
}

TEST(FirewallFirmware, ForwardsToOppositePort) {
    FirewallSystem f;
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(9, 9).frame_size(256);
    ASSERT_TRUE(f.sys.fabric().mac_rx(1, b.build()));
    f.sys.run_cycles(2000);
    EXPECT_EQ(f.sys.sink(0).frames(), 1u);
    EXPECT_EQ(f.sys.sink(1).frames(), 0u);
}

struct PigasusSystem {
    System sys;
    net::IdsRuleSet rules;
    std::vector<net::PacketPtr> host_rx;

    explicit PigasusSystem(bool sw_mode) : sys(make_config(sw_mode)) {
        rules = net::IdsRuleSet::parse(
            "alert tcp any any -> any any (content:\"attackpattern99\"; sid:777;)\n"
            "alert udp any any -> any 53 (content:\"dnsbadness\"; sid:778;)\n");
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::PigasusMatcher>(rules); });
        auto fw = sw_mode ? fwlib::pigasus_sw_reorder() : fwlib::pigasus_hw_reorder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(300);
        sys.host().set_rx_handler([this](net::PacketPtr p) { host_rx.push_back(p); });
    }

    static SystemConfig make_config(bool sw_mode) {
        SystemConfig cfg;
        cfg.rpu_count = 4;
        cfg.lb_policy = sw_mode ? lb::Policy::kHash : lb::Policy::kRoundRobin;
        cfg.hw_reassembler = !sw_mode;
        return cfg;
    }

    net::PacketPtr attack_tcp(uint32_t seq = 1) {
        net::PacketBuilder b;
        b.ipv4(0x0a000001, 0x0a000002).tcp(1000, 2000, seq);
        b.payload_str("....attackpattern99....");
        b.frame_size(256);
        auto p = b.build();
        p->is_attack = true;
        return p;
    }

    net::PacketPtr safe_tcp(uint32_t seq = 1) {
        net::PacketBuilder b;
        b.ipv4(0x0a000001, 0x0a000002).tcp(1000, 2000, seq).frame_size(256);
        return b.build();
    }
};

class PigasusModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(PigasusModeTest, SafePacketForwardedToWire) {
    PigasusSystem f(GetParam());
    auto p = f.safe_tcp();
    std::vector<uint8_t> original = p->data;
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p));
    f.sys.run_cycles(3000);
    ASSERT_EQ(f.sys.sink(1).frames(), 1u);
    EXPECT_TRUE(f.host_rx.empty());
}

TEST_P(PigasusModeTest, AttackPacketGoesToHostWithRuleId) {
    PigasusSystem f(GetParam());
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, f.attack_tcp()));
    f.sys.run_cycles(3000);
    ASSERT_EQ(f.host_rx.size(), 1u);
    EXPECT_EQ(f.sys.sink(0).frames() + f.sys.sink(1).frames(), 0u);
    // The matched rule id (777) is appended at the aligned end.
    const auto& d = f.host_rx[0]->data;
    ASSERT_GE(d.size(), 4u);
    uint32_t appended;
    std::memcpy(&appended, &d[d.size() - 4], 4);
    EXPECT_EQ(appended, 777u);
}

TEST_P(PigasusModeTest, UdpRuleMatchesOnPort) {
    PigasusSystem f(GetParam());
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(5555, 53).payload_str("xx dnsbadness xx");
    b.frame_size(128);
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, b.build()));
    f.sys.run_cycles(3000);
    ASSERT_EQ(f.host_rx.size(), 1u);

    // Same payload on the wrong port: forwarded as safe.
    net::PacketBuilder b2;
    b2.ipv4(0x0a000001, 0x0a000002).udp(5555, 54).payload_str("xx dnsbadness xx");
    b2.frame_size(128);
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, b2.build()));
    f.sys.run_cycles(3000);
    EXPECT_EQ(f.host_rx.size(), 1u);
    EXPECT_EQ(f.sys.sink(1).frames(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PigasusModeTest, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "SwReorder" : "HwReorder";
                         });

TEST(PigasusSwFirmware, StripsHashOnWireForward) {
    PigasusSystem f(/*sw_mode=*/true);
    auto p = f.safe_tcp();
    std::vector<uint8_t> original = p->data;
    net::PacketPtr got;
    f.sys.fabric().set_mac_tx_sink(1, [&](net::PacketPtr q) { got = q; });
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p));
    f.sys.run_cycles(3000);
    ASSERT_NE(got, nullptr);
    // The 4-byte LB hash must not leak onto the wire.
    EXPECT_EQ(got->data, original);
}

TEST(PigasusSwFirmware, ReorderedPairScannedInOrder) {
    PigasusSystem f(/*sw_mode=*/true);
    uint32_t payload = 256 - 54;
    auto p1 = f.safe_tcp(1000);
    auto p2 = f.safe_tcp(1000 + payload);
    auto p3 = f.safe_tcp(1000 + 2 * payload);
    // Deliver p1, then swap p3 before p2.
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p1));
    f.sys.run_cycles(2000);
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p3));
    f.sys.run_cycles(2000);
    EXPECT_EQ(f.sys.sink(1).frames(), 1u);  // p3 held (out of order)
    ASSERT_TRUE(f.sys.fabric().mac_rx(0, p2));
    f.sys.run_cycles(4000);
    // Gap filled: both p2 and the held p3 released.
    EXPECT_EQ(f.sys.sink(1).frames(), 3u);
    EXPECT_TRUE(f.host_rx.empty());
    // No slots leaked.
    for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(f.sys.rpu(i).occupancy(), 0u);
}

TEST(TwoStepForwarder, RelaysThroughLoopback) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::two_step_forwarder(4);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    sys.host().set_recv_mask(0x3);  // first half receives from the wire

    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(1, 2).frame_size(200);
    auto p = b.build();
    std::vector<uint8_t> original = p->data;
    ASSERT_TRUE(sys.fabric().mac_rx(0, p));
    sys.run_cycles(5000);

    EXPECT_EQ(sys.stats().get("loopback.frames"), 1u);
    EXPECT_EQ(sys.sink(0).frames() + sys.sink(1).frames(), 1u);
    for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(sys.rpu(i).occupancy(), 0u) << i;
}

TEST(ChainedFirewall, HeterogeneousPipelineFiltersInStages) {
    // Firewall RPUs (0-1) chain into Pigasus RPUs (2-3) over loopback.
    auto blacklist = net::Blacklist::parse("203.0.113.0/24\n");
    auto rules = net::IdsRuleSet::parse(
        "alert tcp any any -> any any (content:\"chainattack7\"; sid:55;)\n");
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto chain_fw = fwlib::chained_firewall(4);
    auto ids_fw = fwlib::pigasus_hw_reorder();
    for (unsigned i = 0; i < 2; ++i) {
        sys.rpu(i).attach_accelerator(std::make_unique<accel::FirewallMatcher>(blacklist));
        sys.host().load_firmware(i, chain_fw.image, chain_fw.entry);
    }
    for (unsigned i = 2; i < 4; ++i) {
        sys.rpu(i).attach_accelerator(std::make_unique<accel::PigasusMatcher>(rules));
        sys.host().load_firmware(i, ids_fw.image, ids_fw.entry);
    }
    sys.host().boot_all();
    sys.run_cycles(300);
    sys.host().set_recv_mask(0x3);
    std::vector<net::PacketPtr> host_rx;
    sys.host().set_rx_handler([&](net::PacketPtr p) { host_rx.push_back(p); });

    auto mk = [](const char* src, const char* payload) {
        net::PacketBuilder b;
        b.ipv4(net::parse_ipv4_addr(src), 2).tcp(1, 2).payload_str(payload);
        b.frame_size(200);
        return b.build();
    };
    ASSERT_TRUE(sys.fabric().mac_rx(0, mk("10.0.0.1", "benign")));
    sys.run_cycles(3000);
    ASSERT_TRUE(sys.fabric().mac_rx(0, mk("203.0.113.5", "chainattack7")));
    sys.run_cycles(3000);
    ASSERT_TRUE(sys.fabric().mac_rx(0, mk("10.0.0.1", "xx chainattack7 xx")));
    sys.run_cycles(3000);

    EXPECT_EQ(sys.sink(0).frames() + sys.sink(1).frames(), 1u);  // benign
    ASSERT_EQ(host_rx.size(), 1u);                               // IDS alert
    uint64_t dropped = sys.stats().get("rpu0.dropped_packets") +
                       sys.stats().get("rpu1.dropped_packets");
    EXPECT_EQ(dropped, 1u);  // blacklisted, never reached the IDS
    EXPECT_EQ(sys.stats().get("loopback.frames"), 2u);
    for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(sys.rpu(i).occupancy(), 0u);
}

TEST(BroadcastFirmware, SinkAccumulatesLatency) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto sender = fwlib::broadcast_sender(500);
    auto sink = fwlib::broadcast_sink();
    sys.host().load_firmware(0, sender.image, sender.entry);
    for (unsigned i = 1; i < 4; ++i) sys.host().load_firmware(i, sink.image, sink.entry);
    sys.host().boot_all();
    sys.run_cycles(5000);

    for (unsigned i = 1; i < 4; ++i) {
        uint32_t count = sys.host().debug_high(i);
        uint32_t sum = sys.host().debug_low(i);
        EXPECT_GT(count, 3u) << "rpu " << i;
        // Mean firmware-observed latency: tens of cycles, not thousands.
        EXPECT_LT(sum / count, 64u) << "rpu " << i;
        EXPECT_GT(sum / count, 10u) << "rpu " << i;
    }
}

}  // namespace
}  // namespace rosebud
