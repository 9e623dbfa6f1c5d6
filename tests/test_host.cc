/// Host control-plane tests: memory access, debug channel, virtual
/// Ethernet, and the full partial-reconfiguration flow (drain, swap,
/// boot, resume) with its ~756 ms timing and no-pause property.

#include <gtest/gtest.h>

#include <memory>

#include "accel/firewall.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "rpu/descriptor.h"
#include "rv/assembler.h"

namespace rosebud {
namespace {

using namespace rosebud::rv;

SystemConfig
cfg4() {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    return cfg;
}

TEST(Host, MemoryReadWriteRoundTrip) {
    System sys(cfg4());
    std::vector<uint8_t> table = {1, 2, 3, 4, 5, 6, 7, 8};
    sys.host().write_memory(2, rpu::kPmemBase + 0x8000, table);
    EXPECT_EQ(sys.host().read_memory(2, rpu::kPmemBase + 0x8000, 8), table);
    sys.host().write_memory(2, rpu::kDmemBase + 64, table);
    EXPECT_EQ(sys.host().read_memory(2, rpu::kDmemBase + 64, 8), table);
    sys.host().write_memory(2, rpu::kAmemBase, table);
    EXPECT_EQ(sys.host().read_memory(2, rpu::kAmemBase, 8), table);
}

TEST(Host, UnmappedMemoryAccessIsFatal) {
    System sys(cfg4());
    EXPECT_THROW(sys.host().write_memory(0, 0x09000000, {1}), sim::FatalError);
    EXPECT_THROW(sys.host().read_memory(0, 0x09000000, 4), sim::FatalError);
    // A range whose end passes 2^32 must not wrap into DMEM's range.
    EXPECT_THROW(sys.host().read_memory(0, 0xfffffffc, 8), sim::FatalError);
}

TEST(Host, PreloadedTableVisibleToFirmware) {
    // The Pigasus-port capability: the host fills accelerator lookup
    // memory before boot; firmware reads it back.
    System sys(cfg4());
    sys.host().write_memory(0, rpu::kAmemBase + 0x100, {0xef, 0xbe, 0xad, 0xde});

    rv::Assembler a;
    a.lui(gp, 0x2000);
    a.lui(t0, 0x1800);  // AMEM base
    a.lw(t1, 0x100, t0);
    a.sw(t1, rpu::kRegDebugLow, gp);
    a.ebreak();
    sys.host().load_firmware(0, a.assemble());
    sys.host().boot(0);
    sys.run_cycles(100);
    EXPECT_EQ(sys.host().debug_low(0), 0xdeadbeefu);
}

TEST(Host, CountersExposeTraffic) {
    System sys(cfg4());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    net::PacketBuilder b;
    b.ipv4(1, 2).udp(3, 4).frame_size(128);
    ASSERT_TRUE(sys.fabric().mac_rx(0, b.build()));
    sys.run_cycles(2000);
    EXPECT_EQ(sys.host().counter("port0.rx_frames"), 1u);
    EXPECT_EQ(sys.host().counter("port1.tx_frames"), 1u);
    EXPECT_EQ(sys.host().counter("lb.assigned"), 1u);
}

TEST(Host, VirtualEthernetInjection) {
    System sys(cfg4());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    net::PacketBuilder b;
    b.ipv4(1, 2).udp(3, 4).frame_size(256);
    auto p = b.build();
    p->out_iface = net::Iface::kPort0;
    ASSERT_TRUE(sys.host().inject(p));
    sys.run_cycles(3000);
    // Host-injected packets arrive with port=2 in the descriptor; the
    // forwarder XORs the low port bit -> port 3 (loopback) -> relayed once
    // more and eventually forwarded out a physical port.
    EXPECT_EQ(sys.host().counter("host.tx_frames"), 1u);
}

TEST(HostPr, ReconfigureTimingMatchesPaper) {
    System sys(cfg4());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    sim::Rng rng(4);
    auto t = sys.host().reconfigure(1, nullptr, fw.image, fw.entry, rng);
    // Paper Section 4.1: pause + load + boot averages 756 ms.
    EXPECT_NEAR(t.total_ms, 756.0, 756.0 * 0.08);
    EXPECT_GT(t.bitstream_ms, 700.0);
    EXPECT_LT(t.drain_us, 100.0);
    EXPECT_TRUE(sys.rpu(1).slot_config().count > 0);
    EXPECT_EQ(sys.lb().recv_mask() & 0xf, 0xfu);  // traffic resumed
}

TEST(HostPr, AverageOverManyLoadsNear756ms) {
    System sys(cfg4());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    sim::Rng rng(99);
    double total = 0;
    const int kLoads = 20;  // the paper averaged 320; 20 keeps tests fast
    for (int i = 0; i < kLoads; ++i) {
        total += sys.host().reconfigure(i % 4u, nullptr, fw.image, fw.entry, rng).total_ms;
    }
    EXPECT_NEAR(total / kLoads, 756.0, 40.0);
}

TEST(HostPr, SwapsAcceleratorAndFirmwareAtRuntime) {
    // Start as a forwarder, reconfigure RPU 0 into a firewall, verify the
    // new behaviour.
    System sys(cfg4());
    auto fwd = fwlib::forwarder();
    sys.host().load_firmware_all(fwd.image, fwd.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    sim::Rng rng(5);
    net::Blacklist bl;
    bl.add(net::parse_ipv4_addr("66.66.66.66"));
    auto fw_prog = fwlib::firewall();
    sys.host().reconfigure(
        0, [&] { return std::make_unique<accel::FirewallMatcher>(bl); }, fw_prog.image,
        fw_prog.entry, rng);

    // Force traffic to the reconfigured RPU only.
    sys.host().set_recv_mask(0x1);
    net::PacketBuilder bad;
    bad.ipv4(net::parse_ipv4_addr("66.66.66.66"), 2).tcp(1, 2).frame_size(128);
    net::PacketBuilder good;
    good.ipv4(net::parse_ipv4_addr("10.1.1.1"), 2).tcp(1, 2).frame_size(128);
    ASSERT_TRUE(sys.fabric().mac_rx(0, bad.build()));
    ASSERT_TRUE(sys.fabric().mac_rx(0, good.build()));
    sys.run_cycles(3000);
    EXPECT_EQ(sys.sink(1).frames(), 1u);
    EXPECT_EQ(sys.stats().get("rpu0.dropped_packets"), 1u);
}

TEST(HostPr, SecondAcceleratorSwapReusesTheSocket) {
    // The first accelerator elaborates RPU 0's accel_link net; a second
    // swap plugs into the same socket and declares no net or port.
    System sys(cfg4());
    auto fwd = fwlib::forwarder();
    sys.host().load_firmware_all(fwd.image, fwd.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    sim::Rng rng(7);
    net::Blacklist bl;
    bl.add(net::parse_ipv4_addr("66.66.66.66"));
    auto fw_prog = fwlib::firewall();
    auto factory = [&] { return std::make_unique<accel::FirewallMatcher>(bl); };
    sys.host().reconfigure(0, factory, fw_prog.image, fw_prog.entry, rng);
    EXPECT_NE(sys.kernel().net_id("rpu0.accel_link"), sim::kNoNet);
    const size_t nets = sys.kernel().nets().size();
    const size_t ports = sys.kernel().ports().size();

    sys.host().reconfigure(0, factory, fw_prog.image, fw_prog.entry, rng);
    EXPECT_EQ(sys.kernel().nets().size(), nets);
    EXPECT_EQ(sys.kernel().ports().size(), ports);
    const auto violations = sys.lint_check();
    EXPECT_TRUE(violations.empty()) << lint::report(violations);
}

TEST(HostPr, OtherRpusKeepForwardingDuringDrain) {
    // The "no-pause reconfiguration" property: while RPU 0 is being
    // drained and swapped, traffic keeps flowing through the others.
    System sys(cfg4());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    // Background traffic source.
    auto gen = [n = uint64_t(0)]() mutable {
        net::PacketBuilder b;
        b.ipv4(0x0a000001, 0x0a000002).udp(1, 2).frame_size(256);
        auto p = b.build();
        p->id = n++;
        return p;
    };
    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 0.2}, gen);
    sys.run_cycles(5000);
    uint64_t before = sys.sink(1).frames();

    sim::Rng rng(6);
    sys.host().reconfigure(0, nullptr, fw.image, fw.entry, rng);
    uint64_t after = sys.sink(1).frames();
    EXPECT_GT(after, before);  // packets flowed during the drain window

    sys.run_cycles(5000);
    // The reconfigured RPU receives again.
    uint64_t rpu0_rx = sys.stats().get("rpu0.rx_packets");
    sys.run_cycles(20000);
    EXPECT_GT(sys.stats().get("rpu0.rx_packets"), rpu0_rx);
}

TEST(Host, PokeWakesSpinWaitFirmware) {
    // The paper's debugging flow: firmware spin-waits, the host pokes it,
    // firmware dumps state to the debug channel.
    System sys(cfg4());
    rv::Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 0x30);
    a.sw(t0, rpu::kRegIrqMask, gp);
    a.label("spin");
    a.lw(t1, rpu::kRegIrqStatus, gp);
    a.beqz(t1, "spin");
    a.li(t2, 0x600d);
    a.sw(t2, rpu::kRegDebugLow, gp);
    a.ebreak();
    sys.host().load_firmware(0, a.assemble());
    sys.host().boot(0);
    sys.run_cycles(100);
    EXPECT_EQ(sys.host().debug_low(0), 0u);
    sys.host().poke(0);
    sys.run_cycles(100);
    EXPECT_EQ(sys.host().debug_low(0), 0x600du);
}

}  // namespace
}  // namespace rosebud
