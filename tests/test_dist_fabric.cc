/// Distribution-fabric and traffic-endpoint tests: MAC FIFO drops,
/// token-bucket pacing, serialization rates, backpressure chains,
/// loopback channel overhead, and latency accounting.

#include <gtest/gtest.h>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "rpu/descriptor.h"
#include "rv/assembler.h"

namespace rosebud::dist {
namespace {

net::PacketPtr
udp_pkt(uint32_t size, uint64_t id = 0) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).udp(1, 2).frame_size(size);
    auto p = b.build();
    p->id = id;
    return p;
}

struct Booted {
    System sys;
    explicit Booted(unsigned rpus = 4) : sys(make(rpus)) {
        auto fw = fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(300);
    }
    static SystemConfig make(unsigned rpus) {
        SystemConfig cfg;
        cfg.rpu_count = rpus;
        return cfg;
    }
};

TEST(Fabric, MacRxFifoOverflowDrops) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    cfg.fabric.mac_rx_fifo_bytes = 4096;
    System sys(cfg);  // no firmware: nothing drains the FIFO
    unsigned accepted = 0;
    for (int i = 0; i < 100; ++i) {
        if (sys.fabric().mac_rx(0, udp_pkt(1024))) ++accepted;
    }
    EXPECT_EQ(accepted, 4u);  // 4 KB FIFO, 1 KB frames
    EXPECT_EQ(sys.stats().get("port0.rx_fifo_drops"), 96u);
    EXPECT_EQ(sys.stats().get("port0.rx_frames"), 100u);  // counted pre-drop
}

TEST(Fabric, HostQueueBounded) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    cfg.fabric.host_queue_packets = 2;
    System sys(cfg);
    EXPECT_TRUE(sys.fabric().host_inject(udp_pkt(64)));
    EXPECT_TRUE(sys.fabric().host_inject(udp_pkt(64)));
    EXPECT_FALSE(sys.fabric().host_inject(udp_pkt(64)));
}

TEST(TrafficSourceTest, SaturatedSourceHitsLineRate) {
    Booted f;
    uint64_t generated = 0;
    f.sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0},
                     [&] { ++generated; return udp_pkt(512); });
    f.sys.run_cycles(10000);  // 40 us
    // 100 Gbps line at 512+24 bytes per frame = ~23.3 Mpps -> ~933 frames.
    double expected = 100e9 / (536 * 8) * 40e-6;
    EXPECT_NEAR(double(f.sys.stats().get("port0.rx_frames")), expected, expected * 0.02);
}

TEST(TrafficSourceTest, LoadFractionScalesRate) {
    Booted f;
    f.sys.add_source({.port = 0, .line_gbps = 100.0, .load = 0.25},
                     [] { return udp_pkt(512); });
    f.sys.run_cycles(10000);
    double expected = 0.25 * 100e9 / (536 * 8) * 40e-6;
    EXPECT_NEAR(double(f.sys.stats().get("port0.rx_frames")), expected, expected * 0.05);
}

TEST(TrafficSourceTest, PpsCapEnforced) {
    Booted f;
    f.sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0, .max_pps = 1e6},
                     [] { return udp_pkt(64); });
    f.sys.run_cycles(25000);  // 100 us
    EXPECT_NEAR(double(f.sys.stats().get("port0.rx_frames")), 100.0, 8.0);
}

TEST(TrafficSourceTest, TimestampUsesTheConfiguredLineRate) {
    // A 40 Gbps wire moves 20 B per 4 ns cycle, so a frame has been on it
    // for wire_size / 20 cycles by the time the MAC takes it.
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    unsigned seen = 0;
    double tx_ns = 0.0;
    uint64_t mac_rx_cycle = 0;
    uint32_t wire_size = 0;
    sys.add_packet_observer([&](net::Stage stage, const net::Packet& p, sim::Cycle) {
        if (stage != net::Stage::kMacRx) return;
        ++seen;
        tx_ns = p.tx_ns;
        mac_rx_cycle = p.mac_rx_cycle;
        wire_size = p.wire_size();
    });
    sys.add_source({.port = 0, .line_gbps = 40.0, .max_packets = 1},
                   [] { return udp_pkt(512); });
    sys.run_cycles(200);
    ASSERT_EQ(seen, 1u);
    EXPECT_EQ(wire_size, 536u);
    EXPECT_DOUBLE_EQ(tx_ns, sim::cycles_to_ns(mac_rx_cycle) - wire_size / 20.0 * 4.0);
}

TEST(TrafficSourceTest, MaxPacketsStopsGeneration) {
    Booted f;
    auto& src = f.sys.add_source({.port = 0, .load = 1.0, .max_packets = 17},
                                 [] { return udp_pkt(64); });
    f.sys.run_cycles(5000);
    EXPECT_EQ(src.offered(), 17u);
    EXPECT_EQ(f.sys.stats().get("port0.rx_frames"), 17u);
}

TEST(Fabric, ForwardingPreservesAllBytesUnderLoad) {
    Booted f;
    uint64_t id = 0;
    f.sys.add_source({.port = 0, .load = 0.5, .max_packets = 200},
                     [&] { return udp_pkt(300, id++); });
    std::vector<uint64_t> seen;
    f.sys.fabric().set_mac_tx_sink(1, [&](net::PacketPtr p) {
        EXPECT_EQ(p->size(), 300u);
        seen.push_back(p->id);
    });
    f.sys.run_cycles(60000);
    ASSERT_EQ(seen.size(), 200u);
    // Round-robin over RPUs may reorder slightly across RPUs but every
    // packet arrives exactly once.
    std::sort(seen.begin(), seen.end());
    for (uint64_t i = 0; i < 200; ++i) EXPECT_EQ(seen[i], i);
}

TEST(Fabric, LatencyAccountingMatchesSerialization) {
    Booted f(16);
    f.sys.add_source({.port = 0, .load = 0.02, .max_packets = 50},
                     [] { return udp_pkt(64); });
    f.sys.run_cycles(300000);
    ASSERT_GT(f.sys.sink(1).latency().count(), 10u);
    double mean_us = f.sys.sink(1).latency().mean() / 1e6;
    // Eq. 1 at 64 B: ~0.81 us.
    EXPECT_NEAR(mean_us, 0.81, 0.08);
}

TEST(Fabric, LoopbackChannelCountsHeaderOverhead) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::two_step_forwarder(4);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    sys.host().set_recv_mask(0x3);

    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sys.fabric().mac_rx(0, udp_pkt(128, uint64_t(i))));
        sys.run_cycles(2000);
    }
    EXPECT_EQ(sys.stats().get("loopback.frames"), 10u);
    EXPECT_EQ(sys.stats().get("loopback.bytes"), 1280u);
    EXPECT_EQ(sys.sink(0).frames() + sys.sink(1).frames(), 10u);
}

TEST(Fabric, SwitchingResourcesMatchPaperRows) {
    SystemConfig cfg16, cfg8;
    cfg16.rpu_count = 16;
    cfg8.rpu_count = 8;
    System s16(cfg16), s8(cfg8);
    EXPECT_NEAR(double(s16.fabric().switching_resources().luts), 86234.0, 86234 * 0.02);
    EXPECT_NEAR(double(s8.fabric().switching_resources().luts), 48402.0, 48402 * 0.02);
    EXPECT_NEAR(double(s16.fabric().switching_resources().regs), 123654.0,
                123654 * 0.02);
    EXPECT_EQ(s16.fabric().switching_resources().uram, 64u);
    EXPECT_EQ(s8.fabric().switching_resources().uram, 32u);
    EXPECT_NEAR(double(s16.fabric().interconnect_resources().luts), 2793.0, 60.0);
    EXPECT_NEAR(double(s8.fabric().interconnect_resources().luts), 2964.0, 60.0);
}

TEST(FabricPcie, HostChannelBandwidthBounded) {
    // Route ALL traffic to the host and check the PCIe cap holds.
    SystemConfig cfg;
    cfg.rpu_count = 4;
    cfg.fabric.pcie_gbps = 20.0;  // deliberately small for the test
    System sys(cfg);
    // Firmware that sends everything to port 2 (the host).
    rv::Assembler a;
    a.lui(rv::gp, 0x2000);
    a.li(rv::t0, 32);
    a.sw(rv::t0, rpu::kRegSlotCount, rv::gp);
    a.lui(rv::t0, 0x1000);
    a.sw(rv::t0, rpu::kRegSlotBase, rv::gp);
    a.lui(rv::t0, 0x4);
    a.sw(rv::t0, rpu::kRegSlotSize, rv::gp);
    a.sw(rv::zero, rpu::kRegSlotCommit, rv::gp);
    a.label("loop");
    a.lw(rv::a0, rpu::kRegRecvLow, rv::gp);
    a.beqz(rv::a0, "loop");
    a.sw(rv::zero, rpu::kRegRecvRelease, rv::gp);
    a.andi(rv::a0, rv::a0, -16);
    a.ori(rv::a0, rv::a0, 2);  // port = host
    a.sw(rv::a0, rpu::kRegSendLow, rv::gp);
    a.sw(rv::zero, rpu::kRegSendHigh, rv::gp);
    a.j("loop");
    sys.host().load_firmware_all(a.assemble());
    sys.host().boot_all();
    sys.run_cycles(300);
    uint64_t host_bytes = 0;
    sys.host().set_rx_handler([&](net::PacketPtr p) { host_bytes += p->size(); });

    sys.add_source({.port = 0, .load = 1.0}, [] { return udp_pkt(1024); });
    sys.run_cycles(25000);
    uint64_t warm = host_bytes;
    sys.run_cycles(50000);  // 200 us window
    double gbps = double(host_bytes - warm) * 8.0 / (50000.0 / 250e6) / 1e9;
    EXPECT_NEAR(gbps, 20.0, 1.5);  // capped by the PCIe model, not the 100G line
}

TEST(FabricPcie, TagExhaustionBackpressures) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    cfg.fabric.pcie_gbps = 1.0;  // drain almost nothing
    cfg.fabric.pcie_tags = 4;
    System sys(cfg);
    rv::Assembler a;
    a.lui(rv::gp, 0x2000);
    a.li(rv::t0, 32);
    a.sw(rv::t0, rpu::kRegSlotCount, rv::gp);
    a.lui(rv::t0, 0x1000);
    a.sw(rv::t0, rpu::kRegSlotBase, rv::gp);
    a.lui(rv::t0, 0x4);
    a.sw(rv::t0, rpu::kRegSlotSize, rv::gp);
    a.sw(rv::zero, rpu::kRegSlotCommit, rv::gp);
    a.label("loop");
    a.lw(rv::a0, rpu::kRegRecvLow, rv::gp);
    a.beqz(rv::a0, "loop");
    a.sw(rv::zero, rpu::kRegRecvRelease, rv::gp);
    a.andi(rv::a0, rv::a0, -16);
    a.ori(rv::a0, rv::a0, 2);
    a.sw(rv::a0, rpu::kRegSendLow, rv::gp);
    a.sw(rv::zero, rpu::kRegSendHigh, rv::gp);
    a.j("loop");
    sys.host().load_firmware_all(a.assemble());
    sys.host().boot_all();
    sys.run_cycles(300);
    sys.host().set_rx_handler([](net::PacketPtr) {});
    for (int i = 0; i < 64; ++i) sys.fabric().mac_rx(0, udp_pkt(512));
    sys.run_cycles(20000);
    EXPECT_GT(sys.stats().get("host.tag_stall"), 0u);
    // Nothing lost: slow drain, but conservation holds eventually.
    sys.run_cycles(1200000);
    EXPECT_EQ(sys.stats().get("host.rx_frames"), 64u);
}

// One RPU's egress queue holds a frame for each port. Both destinations
// arbitrate in the same tick: once port 0 takes the head, the next head
// (for port 1) is visible to port 1's scan on that very tick, so both
// frames leave the wire on the same cycle.
TEST(Fabric, EgressNextHeadServesAnotherPortOnTheSameCycle) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);  // no firmware: only the egress path runs
    std::vector<sim::Cycle> sent[2];
    sys.add_packet_observer(
        [&](net::Stage stage, const net::Packet& pkt, sim::Cycle now) {
            if (stage == net::Stage::kMacTx) sent[unsigned(pkt.out_iface)].push_back(now);
        });
    for (unsigned port = 0; port < 2; ++port) {
        auto pkt = udp_pkt(256, port);
        pkt->out_iface = net::Iface(port);
        ASSERT_TRUE(sys.fabric().rpu_egress(1, pkt));
    }
    sys.run_cycles(300);
    ASSERT_EQ(sent[0].size(), 1u);
    ASSERT_EQ(sent[1].size(), 1u);
    EXPECT_EQ(sent[1][0], sent[0][0]);
}

TEST(Fabric, BadPortIsFatal) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    EXPECT_THROW(sys.fabric().mac_rx(2, udp_pkt(64)), sim::FatalError);
}

TEST(SystemTest, RpuCountValidation) {
    SystemConfig bad;
    bad.rpu_count = 6;  // not a multiple of 4
    EXPECT_THROW(System{bad}, sim::FatalError);
    bad.rpu_count = 0;
    EXPECT_THROW(System{bad}, sim::FatalError);
}

}  // namespace
}  // namespace rosebud::dist
