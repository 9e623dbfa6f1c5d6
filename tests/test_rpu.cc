/// Standalone RPU tests: memory map, MMIO interconnect registers, the
/// RX/TX engine timing (32 Gbps link serialization), slot configuration,
/// descriptor flow, drops, broadcast endpoint behaviour, and host debug
/// access — all without the distribution fabric.

#include <gtest/gtest.h>

#include <string>

#include "core/system.h"
#include "mem/memory.h"
#include "net/headers.h"
#include "rpu/descriptor.h"
#include "rpu/rpu.h"
#include "rv/assembler.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace rosebud::rpu {
namespace {

using rv::Assembler;
using namespace rv;

/// Firmware that configures slots and then parks.
std::vector<uint32_t>
slot_config_firmware(uint32_t count = 8, uint32_t size = 16384) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, int32_t(count));
    a.sw(t0, kRegSlotCount, gp);
    a.lui(t0, 0x1000);
    a.sw(t0, kRegSlotBase, gp);
    a.li(t0, int32_t(size));
    a.sw(t0, kRegSlotSize, gp);
    a.lui(t0, 0x804);
    a.sw(t0, kRegHdrBase, gp);
    a.li(t0, 128);
    a.sw(t0, kRegHdrSize, gp);
    a.sw(zero, kRegSlotCommit, gp);
    a.label("park");
    a.j("park");
    return a.assemble();
}

/// The minimal receive/release/send loop (its poll is a pure MMIO load,
/// so the idle-loop watcher can prove it).
std::vector<uint32_t>
forwarder_firmware() {
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 8);
    a.sw(t0, kRegSlotCount, gp);
    a.lui(t0, 0x1000);
    a.sw(t0, kRegSlotBase, gp);
    a.lui(t0, 0x4);
    a.sw(t0, kRegSlotSize, gp);
    a.sw(zero, kRegSlotCommit, gp);
    a.label("loop");
    a.lw(a0, kRegRecvLow, gp);
    a.beqz(a0, "loop");
    a.sw(zero, kRegRecvRelease, gp);
    a.sw(a0, kRegSendLow, gp);
    a.sw(zero, kRegSendHigh, gp);
    a.j("loop");
    return a.assemble();
}

struct Fixture {
    sim::Kernel kernel;
    sim::Stats stats;
    Rpu rpu;
    std::vector<net::PacketPtr> egressed;
    std::vector<std::pair<uint8_t, uint8_t>> freed;

    Fixture() : rpu(kernel, stats, Rpu::Config{.id = 3}) {
        rpu.set_egress_handler([this](net::PacketPtr p) {
            egressed.push_back(p);
            return true;
        });
        rpu.set_slot_free_handler(
            [this](uint8_t r, uint8_t s) { freed.push_back({r, s}); });
    }

    void boot(const std::vector<uint32_t>& image) {
        rpu.load_firmware(image);
        rpu.boot();
        kernel.run(100);
    }

    net::PacketPtr make_pkt(uint32_t size, uint8_t slot) {
        net::PacketBuilder b;
        b.ipv4(0x01020304, 0x05060708).udp(123, 456).frame_size(size);
        auto p = b.build();
        p->dest_slot = slot;
        p->in_iface = net::Iface::kPort0;
        return p;
    }
};

TEST(RpuDesc, PackUnpackRoundTrip) {
    Desc d;
    d.len = 1500;
    d.slot = 17;
    d.port = 2;
    d.addr = 0x01004000;
    Desc u = Desc::unpack(d.low(), d.high());
    EXPECT_EQ(u.len, d.len);
    EXPECT_EQ(u.slot, d.slot);
    EXPECT_EQ(u.port, d.port);
    EXPECT_EQ(u.addr, d.addr);
}

TEST(RpuDesc, PortToggleViaXori) {
    Desc d;
    d.len = 64;
    d.slot = 1;
    d.port = 0;
    Desc t = Desc::unpack(d.low() ^ 1, 0);
    EXPECT_EQ(t.port, 1);
    EXPECT_EQ(t.slot, d.slot);
    EXPECT_EQ(t.len, d.len);
}

TEST(RpuTest, SlotConfigReachesCallback) {
    Fixture f;
    SlotConfig seen;
    f.rpu.set_slot_config_handler([&](uint8_t, const SlotConfig& c) { seen = c; });
    f.boot(slot_config_firmware(12, 8192));
    EXPECT_EQ(seen.count, 12u);
    EXPECT_EQ(seen.base, kPmemBase);
    EXPECT_EQ(seen.size, 8192u);
    EXPECT_EQ(seen.hdr_base, kDefaultHdrBase);
    EXPECT_EQ(f.rpu.slot_config().count, 12u);
}

TEST(RpuTest, RxWritesPacketAndHeaderCopy) {
    Fixture f;
    f.boot(slot_config_firmware());
    auto pkt = f.make_pkt(256, 2);
    std::vector<uint8_t> original = pkt->data;
    ASSERT_TRUE(f.rpu.rx_ready());
    f.rpu.begin_rx(pkt);
    f.kernel.run(64);

    // Packet memory at slot 2 = PMEM + 16384.
    std::vector<uint8_t> stored(256);
    f.rpu.pmem().read_block(16384, stored.data(), 256);
    EXPECT_EQ(stored, original);

    // Header copy in DMEM at hdr_base + (2-1)*128.
    std::vector<uint8_t> hdr(128);
    f.rpu.dmem().read_block(kDefaultHdrBase - kDmemBase + 128, hdr.data(), 128);
    EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), original.begin()));
    EXPECT_EQ(f.rpu.occupancy(), 1u);
}

// 1024 B at 16 B/cycle: R = 64 transfer cycles, then G = 11 setup cycles.
constexpr sim::Cycle kXferR = 64;
constexpr sim::Cycle kXferG = 11;

TEST(RpuTest, RxSerializationTakesLinkCycles) {
    // A host-phase begin_rx at cycle N frees the link at exactly N+R+G,
    // whether the parked RPU sleeps through the transfer or not.
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skip on" : "idle skip off");
        Fixture f;
        f.kernel.set_idle_skip(skip);
        f.boot(slot_config_firmware());
        const sim::Cycle n = f.kernel.now();
        f.rpu.begin_rx(f.make_pkt(1024, 1));
        f.kernel.run(kXferR - 1);  // not ready during the transfer
        EXPECT_FALSE(f.rpu.rx_ready());
        EXPECT_EQ(f.stats.get("rpu3.rx_packets"), 0u);
        f.kernel.run(1);
        EXPECT_EQ(f.stats.get("rpu3.rx_packets"), 1u);
        f.kernel.run(kXferG - 1);  // the setup gap holds rx_ready low
        EXPECT_FALSE(f.rpu.rx_ready());
        f.kernel.run(1);
        EXPECT_EQ(f.kernel.now(), n + kXferR + kXferG);
        EXPECT_TRUE(f.rpu.rx_ready());
    }
}

TEST(RpuTest, HashPrependedPacketStoresHashFirst) {
    Fixture f;
    f.boot(slot_config_firmware());
    auto pkt = f.make_pkt(128, 1);
    pkt->lb_hash = 0xa1b2c3d4;
    pkt->hash_prepended = true;
    f.rpu.begin_rx(pkt);
    f.kernel.run(32);
    EXPECT_EQ(f.rpu.pmem().read32(0), 0xa1b2c3d4u);
    EXPECT_EQ(f.rpu.pmem().read8(4), pkt->data[0]);
}

TEST(RpuTest, ForwarderRoundTrip) {
    // Full firmware loop: receive, toggle port, send; check egress packet.
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 8);
    a.sw(t0, kRegSlotCount, gp);
    a.lui(t0, 0x1000);
    a.sw(t0, kRegSlotBase, gp);
    a.li(t0, 16384 / 4);
    a.slli(t0, t0, 2);
    a.sw(t0, kRegSlotSize, gp);
    a.sw(zero, kRegSlotCommit, gp);
    a.label("loop");
    a.lw(a0, kRegRecvLow, gp);
    a.beqz(a0, "loop");
    a.sw(zero, kRegRecvRelease, gp);
    a.xori(a0, a0, 1);
    a.sw(a0, kRegSendLow, gp);
    a.sw(zero, kRegSendHigh, gp);
    a.j("loop");

    Fixture f;
    f.boot(a.assemble());
    auto pkt = f.make_pkt(200, 3);
    std::vector<uint8_t> original = pkt->data;
    f.rpu.begin_rx(pkt);
    f.kernel.run(300);

    ASSERT_EQ(f.egressed.size(), 1u);
    EXPECT_EQ(f.egressed[0]->data, original);
    EXPECT_EQ(f.egressed[0]->out_iface, net::Iface::kPort1);
    ASSERT_EQ(f.freed.size(), 1u);
    EXPECT_EQ(f.freed[0].first, 3);   // rpu id
    EXPECT_EQ(f.freed[0].second, 3);  // slot
    EXPECT_EQ(f.rpu.occupancy(), 0u);
}

// When the slot holds the only reference, the TX engine sends the
// received packet object itself. It must leave that object exactly as a
// freshly assembled packet would be: same bytes and metadata, and no
// hash-prepend flag or matcher results left over from the receive side.
TEST(RpuTest, TxSendsSoleReferenceAsAFreshPacket) {
    auto send = [](bool keep_reference) {
        Fixture f;
        f.boot(forwarder_firmware());
        auto pkt = f.make_pkt(200, 2);
        pkt->id = 77;
        pkt->tx_ns = 12.5;
        pkt->mac_rx_cycle = 31;
        pkt->flow_class = net::FlowClass::kTcp;
        pkt->in_iface = net::Iface::kPort1;
        pkt->lb_hash = 0xa1b2c3d4;
        pkt->hash_prepended = true;
        pkt->matched_rules = {7};
        pkt->is_attack = true;
        pkt->flow_seq = 9;
        const net::Packet* received = pkt.get();
        net::PacketPtr kept = keep_reference ? pkt : nullptr;
        f.rpu.begin_rx(std::move(pkt));
        f.kernel.run(300);
        EXPECT_EQ(f.egressed.size(), 1u);
        if (f.egressed.empty()) return std::make_pair(net::Packet{}, false);
        return std::make_pair(*f.egressed[0], f.egressed[0].get() == received);
    };
    const auto [fresh, fresh_reused] = send(true);
    const auto [reused, reused_reused] = send(false);
    EXPECT_FALSE(fresh_reused);  // a second owner forces a new packet
    EXPECT_TRUE(reused_reused);
    EXPECT_EQ(reused.data, fresh.data);
    EXPECT_EQ(reused.data.size(), 204u);  // the hash word goes out too
    EXPECT_EQ(reused.id, fresh.id);
    EXPECT_EQ(reused.tx_ns, fresh.tx_ns);
    EXPECT_EQ(reused.mac_rx_cycle, 31u);
    EXPECT_EQ(reused.mac_rx_cycle, fresh.mac_rx_cycle);
    EXPECT_EQ(reused.flow_class, net::FlowClass::kTcp);
    EXPECT_EQ(reused.flow_class, fresh.flow_class);
    EXPECT_EQ(reused.in_iface, fresh.in_iface);
    EXPECT_EQ(reused.out_iface, fresh.out_iface);
    EXPECT_EQ(reused.dest_rpu, fresh.dest_rpu);
    EXPECT_EQ(reused.dest_slot, fresh.dest_slot);
    EXPECT_EQ(reused.lb_hash, fresh.lb_hash);
    EXPECT_FALSE(reused.hash_prepended);
    EXPECT_FALSE(fresh.hash_prepended);
    EXPECT_TRUE(reused.matched_rules.empty());
    EXPECT_EQ(reused.is_attack, fresh.is_attack);
    EXPECT_EQ(reused.flow_seq, fresh.flow_seq);
}

TEST(RpuTest, ZeroLengthSendDropsPacket) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 8);
    a.sw(t0, kRegSlotCount, gp);
    a.lui(t0, 0x1000);
    a.sw(t0, kRegSlotBase, gp);
    a.lui(t0, 0x4);  // 16384
    a.sw(t0, kRegSlotSize, gp);
    a.sw(zero, kRegSlotCommit, gp);
    a.label("loop");
    a.lw(a0, kRegRecvLow, gp);
    a.beqz(a0, "loop");
    a.sw(zero, kRegRecvRelease, gp);
    a.slli(a0, a0, 20);  // len := 0
    a.srli(a0, a0, 20);
    a.sw(a0, kRegSendLow, gp);
    a.sw(zero, kRegSendHigh, gp);
    a.j("loop");

    Fixture f;
    f.boot(a.assemble());
    f.rpu.begin_rx(f.make_pkt(64, 1));
    f.kernel.run(200);
    EXPECT_EQ(f.egressed.size(), 0u);
    EXPECT_EQ(f.stats.get("rpu3.dropped_packets"), 1u);
    EXPECT_EQ(f.freed.size(), 1u);
    EXPECT_EQ(f.rpu.occupancy(), 0u);
}

TEST(RpuTest, EgressBackpressureStallsTx) {
    Fixture f;
    bool accept = false;
    f.rpu.set_egress_handler([&](net::PacketPtr p) {
        if (accept) f.egressed.push_back(p);
        return accept;
    });
    f.boot(forwarder_firmware());

    f.rpu.begin_rx(f.make_pkt(64, 1));
    f.kernel.run(300);
    EXPECT_EQ(f.egressed.size(), 0u);
    EXPECT_EQ(f.rpu.occupancy(), 1u);  // slot not freed while blocked
    EXPECT_GT(f.stats.get("rpu3.tx_stall_cycles"), 0u);
    accept = true;
    f.kernel.run(10);
    EXPECT_EQ(f.egressed.size(), 1u);
    EXPECT_EQ(f.rpu.occupancy(), 0u);
}

TEST(RpuTest, DebugRegistersVisibleToHost) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 0x1234);
    a.sw(t0, kRegDebugLow, gp);
    a.li(t0, 0x5678);
    a.sw(t0, kRegDebugHigh, gp);
    a.ebreak();

    Fixture f;
    f.boot(a.assemble());
    EXPECT_EQ(f.rpu.debug_low(), 0x1234u);
    EXPECT_EQ(f.rpu.debug_high(), 0x5678u);
    EXPECT_TRUE(f.rpu.core_halted());
    EXPECT_FALSE(f.rpu.core_faulted());
}

// A loopback slot request's answer unlocks only after the 8-cycle
// control-channel round trip (paper Figure 4b), however late the request:
// one made after cycle 2^32 waits exactly as long as one made at cycle 0.
TEST(RpuTest, SlotResponseWaitsTheRoundTripPastTwoToThe32Cycles) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 1);
    a.rdcycle(t1);
    a.sw(t0, kRegLbSlotReq, gp);
    a.label("poll");
    a.lw(t2, kRegLbSlotResp, gp);
    a.beqz(t2, "poll");
    a.rdcycle(t3);
    a.sub(t3, t3, t1);
    a.sw(t3, kRegDebugLow, gp);
    a.ebreak();
    const std::vector<uint32_t> image = a.assemble();

    // Returns the cycles from the request to the first nonzero response.
    auto round_trip = [&](sim::Cycle idle_cycles) {
        Fixture f;
        f.rpu.set_slot_request_handler(
            [&f](uint8_t, uint8_t dst) { f.rpu.slot_response(dst, 5); });
        f.kernel.run(idle_cycles);  // the core is halted, so the RPU sleeps
        f.boot(image);
        EXPECT_TRUE(f.rpu.core_halted());
        EXPECT_FALSE(f.rpu.core_faulted());
        return f.rpu.debug_low();
    };
    const uint32_t from_zero = round_trip(0);
    EXPECT_GT(from_zero, 8u);
    EXPECT_EQ(round_trip((sim::Cycle(1) << 32) + 1000), from_zero);
}

TEST(RpuTest, CoreIdAndIrqRegisters) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, kRegCoreId, gp);
    a.sw(t0, kRegDebugLow, gp);
    a.li(t0, 0x30);  // enable evict + poke
    a.sw(t0, kRegIrqMask, gp);
    a.label("wait");
    a.lw(t1, kRegIrqStatus, gp);
    a.beqz(t1, "wait");
    a.sw(t1, kRegDebugHigh, gp);
    a.ebreak();

    Fixture f;
    f.boot(a.assemble());
    EXPECT_EQ(f.rpu.debug_low(), 3u);  // core id
    EXPECT_FALSE(f.rpu.core_halted());
    f.rpu.raise_poke();
    f.kernel.run(50);
    EXPECT_TRUE(f.rpu.core_halted());
    EXPECT_EQ(f.rpu.debug_high(), uint32_t(kIrqPoke));
}

TEST(RpuTest, MaskedInterruptInvisible) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.sw(zero, kRegIrqMask, gp);  // mask everything
    a.li(t2, 100);
    a.label("wait");
    a.lw(t1, kRegIrqStatus, gp);
    a.bnez(t1, "seen");
    a.addi(t2, t2, -1);
    a.bnez(t2, "wait");
    a.li(t3, 1);  // timed out: interrupt never seen
    a.sw(t3, kRegDebugLow, gp);
    a.ebreak();
    a.label("seen");
    a.li(t3, 2);
    a.sw(t3, kRegDebugLow, gp);
    a.ebreak();

    Fixture f;
    f.rpu.load_firmware(a.assemble());
    f.rpu.boot();
    f.rpu.raise_evict();
    f.kernel.run(2000);
    EXPECT_EQ(f.rpu.debug_low(), 1u);
}

TEST(RpuTest, BroadcastStoreBlocksUntilAccepted) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lui(s5, 0x2020);
    a.li(t0, 0x77);
    a.sw(t0, 0, s5);  // broadcast write
    a.li(t0, 1);
    a.sw(t0, kRegDebugLow, gp);
    a.ebreak();

    Fixture f;
    int deny = 30;
    uint32_t sent_value = 0;
    f.rpu.set_broadcast_sender([&](uint8_t, uint32_t off, uint32_t val) {
        if (deny > 0) {
            --deny;
            return false;
        }
        EXPECT_EQ(off, 0u);
        sent_value = val;
        return true;
    });
    f.rpu.load_firmware(a.assemble());
    f.rpu.boot();
    f.kernel.run(20);
    EXPECT_EQ(f.rpu.debug_low(), 0u);  // still blocked
    f.kernel.run(50);
    EXPECT_EQ(f.rpu.debug_low(), 1u);
    EXPECT_EQ(sent_value, 0x77u);
}

TEST(RpuTest, BroadcastDeliveryUpdatesLocalCopyAndNotifies) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lui(s5, 0x2020);
    a.label("wait");
    a.lw(t0, kRegBcastReady, gp);
    a.beqz(t0, "wait");
    a.lw(t1, kRegBcastAddr, gp);
    a.lw(t2, kRegBcastData, gp);
    a.sw(zero, kRegBcastPop, gp);
    a.sw(t1, kRegDebugLow, gp);
    a.sw(t2, kRegDebugHigh, gp);
    // Also read the semi-coherent local copy.
    a.lw(t3, 0x40, s5);
    a.bne(t3, t2, "bad");
    a.ebreak();
    a.label("bad");
    a.sw(zero, kRegDebugHigh, gp);
    a.ebreak();

    Fixture f;
    f.rpu.load_firmware(a.assemble());
    f.rpu.boot();
    f.kernel.run(10);
    f.rpu.broadcast_deliver(0x40, 0xfeed);
    f.kernel.run(100);
    EXPECT_TRUE(f.rpu.core_halted());
    EXPECT_EQ(f.rpu.debug_low(), 0x40u);
    EXPECT_EQ(f.rpu.debug_high(), 0xfeedu);
}

TEST(RpuTest, UnmappedAccessFaultsCore) {
    Assembler a;
    a.lui(t0, 0x50000);  // far outside every region
    a.lw(t1, 0, t0);
    a.ebreak();
    Fixture f;
    f.rpu.load_firmware(a.assemble());
    f.rpu.boot();
    f.kernel.run(50);
    EXPECT_TRUE(f.rpu.core_faulted());
}

// Bus ranges are checked in 64 bits: an access within 4 bytes of 2^32
// must not wrap into IMEM's range and index 4 GB past the image. Loads
// there fault the core; a jump there fetches the off-image ebreak, which
// halts it cleanly.
TEST(RpuTest, AccessesNearTwoToThe32DoNotWrap) {
    struct End {
        bool halted, faulted;
        uint32_t pc;
    };
    auto run = [](auto emit) {
        Assembler a;
        emit(a);
        a.ebreak();
        Fixture f;
        f.rpu.load_firmware(a.assemble());
        f.rpu.boot();
        f.kernel.run(50);
        return End{f.rpu.core_halted(), f.rpu.core_faulted(), f.rpu.core().pc()};
    };
    End e = run([](Assembler& a) { a.lw(a0, -4, zero); });
    EXPECT_TRUE(e.faulted);
    EXPECT_EQ(e.pc, 0u);
    e = run([](Assembler& a) { a.lhu(a0, -2, zero); });
    EXPECT_TRUE(e.faulted);
    EXPECT_EQ(e.pc, 0u);
    e = run([](Assembler& a) { a.jalr(zero, zero, -4); });
    EXPECT_TRUE(e.halted);
    EXPECT_FALSE(e.faulted);
    EXPECT_EQ(e.pc, 0xfffffffcu);
}

// The verifier admits a load through a pointer the host wrote into DMEM,
// so under the default FirmwareCheck::kEnforce the host can aim a load at
// 0xfffffffc: it must fault the core, not crash the simulator.
TEST(RpuTest, VerifiedLoadThroughHostPointerNearTwoToThe32Faults) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    ASSERT_EQ(sys.host().firmware_check(), host::FirmwareCheck::kEnforce);
    sys.host().write_memory(0, kDmemBase, {0xfc, 0xff, 0xff, 0xff});
    Assembler a;
    a.lui(t1, 0x800);  // DMEM base
    a.lw(t0, 0, t1);   // the host's pointer
    a.lw(a0, 0, t0);
    a.ebreak();
    sys.host().load_firmware(0, a.assemble());
    sys.host().boot(0);
    sys.run_cycles(50);
    EXPECT_TRUE(sys.rpu(0).core_faulted());
    EXPECT_EQ(sys.rpu(0).core().pc(), 8u);
}

// IMEM is zero pages, and a reload clears only the previous image's words.
// A 3-word image after a 40-word one must leave words 3..39 zero: a stale
// tail would let the core run on into the old image.
TEST(RpuTest, ShortImageAfterLongOneLeavesNoStaleWords) {
    auto image = [](int32_t value, unsigned copies, bool halt) {
        Assembler a;
        for (unsigned i = 0; i < copies; ++i) {
            a.lui(gp, 0x2000);
            a.li(t0, value);
            a.sw(t0, kRegDebugLow, gp);
        }
        if (halt) a.ebreak();
        return a.assemble();
    };
    const std::vector<uint32_t> long_image = image(1, 13, true);
    const std::vector<uint32_t> short_image = image(7, 1, false);
    ASSERT_EQ(long_image.size(), 40u);
    ASSERT_EQ(short_image.size(), 3u);
    Fixture f;
    f.rpu.load_firmware(long_image);
    f.rpu.boot();
    f.kernel.run(200);
    ASSERT_TRUE(f.rpu.core_halted());
    EXPECT_EQ(f.rpu.debug_low(), 1u);

    f.rpu.load_firmware(short_image);
    for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(f.rpu.imem()[i], short_image[i]);
    for (uint32_t i = 3; i < 40; ++i) EXPECT_EQ(f.rpu.imem()[i], 0u) << "word " << i;
    f.rpu.boot();
    f.kernel.run(200);
    EXPECT_EQ(f.rpu.debug_low(), 7u);
    EXPECT_TRUE(f.rpu.core_faulted());  // word 3 is 0, an illegal instruction
    EXPECT_EQ(f.rpu.core().pc(), 12u);
}

TEST(RpuTest, BootResetsEngineState) {
    Fixture f;
    f.boot(slot_config_firmware());
    f.rpu.begin_rx(f.make_pkt(64, 1));
    f.kernel.run(2);
    f.rpu.boot();  // mid-transfer reconfiguration
    EXPECT_EQ(f.rpu.occupancy(), 0u);
    EXPECT_EQ(f.rpu.slot_config().count, 0u);
    f.kernel.run(100);  // firmware reconfigures slots again
    EXPECT_EQ(f.rpu.slot_config().count, 8u);
}

// A core parked in a proven idle loop lets the RPU sleep. A boot must not
// inherit that proof: the reset core runs its image from the entry point.
TEST(RpuTest, BootAfterIdleSleepRerunsFirmware) {
    Fixture f;
    f.boot(slot_config_firmware());
    f.kernel.run(1000);
    ASSERT_FALSE(f.rpu.awake());  // parked and asleep
    f.rpu.boot();
    EXPECT_EQ(f.rpu.slot_config().count, 0u);
    f.kernel.run(100);
    EXPECT_EQ(f.rpu.slot_config().count, 8u);
}

TEST(RpuTest, ReloadAfterIdleSleepRunsNewFirmware) {
    Fixture f;
    f.boot(slot_config_firmware());
    f.kernel.run(1000);
    ASSERT_FALSE(f.rpu.awake());
    f.rpu.halt();
    f.rpu.load_firmware(slot_config_firmware(4, 8192));
    f.rpu.boot();
    f.kernel.run(100);
    EXPECT_EQ(f.rpu.slot_config().count, 4u);
    EXPECT_EQ(f.rpu.slot_config().size, 8192u);
}

// A core parked in a proven poll loop over a DMEM flag lets the RPU
// sleep. A host write to that flag must settle the skipped cycles against
// the old value, void the loop proof and wake the RPU, so the core leaves
// the loop on exactly the cycle it does when every cycle is ticked. The
// write lands mid-run (from a run_until predicate, as host drains do),
// where the sleeper's skipped cycles are not yet accounted.
TEST(RpuTest, HostWriteWakesCorePollingMemory) {
    constexpr uint32_t kFlag = kDmemBase + 0x100;
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t1, int32_t(kFlag));
    a.label("poll");
    a.lw(t0, 0, t1);
    a.beqz(t0, "poll");
    // Released: count loop iterations into the debug register, a loop
    // that never repeats its state and so must run live.
    a.label("count");
    a.addi(t2, t2, 1);
    a.sw(t2, kRegDebugLow, gp);
    a.j("count");
    const std::vector<uint32_t> image = a.assemble();

    struct Outcome {
        uint64_t cycles = 0, instret = 0;
        uint32_t debug = 0;
    };
    auto run = [&](bool skip) {
        Fixture f;
        f.kernel.set_idle_skip(skip);
        f.boot(image);
        f.kernel.run(1000);
        EXPECT_EQ(f.rpu.awake(), !skip);  // with idle skip on, it sleeps
        f.kernel.run_until(
            [&] {
                if (f.kernel.now() == 1500) f.rpu.write_memory(kFlag, {1, 0, 0, 0});
                return false;
            },
            700);
        return Outcome{f.rpu.core().cycles(), f.rpu.core().instret(),
                       f.rpu.debug_low()};
    };
    const Outcome on = run(true);
    const Outcome off = run(false);
    EXPECT_GT(off.debug, 0u);
    EXPECT_EQ(on.debug, off.debug);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instret, off.instret);
}

/// Drives the RPU's ingress link from the tick phase, as the fabric does:
/// begins one transfer on cycle `start`, then records the first cycle
/// whose tick-phase rx_ready() is true again.
class LinkFeeder : public sim::Component {
 public:
    LinkFeeder(sim::Kernel& k, Rpu& rpu, net::PacketPtr pkt, sim::Cycle start)
        : sim::Component(k, "feeder"), rpu_(rpu), pkt_(std::move(pkt)), start_(start) {}

    void tick() override {
        if (now() == start_) {
            ASSERT_TRUE(rpu_.rx_ready());
            rpu_.begin_rx(pkt_);
            EXPECT_FALSE(rpu_.rx_ready());
        } else if (now() > start_ && ready_at == sim::kNever && rpu_.rx_ready()) {
            ready_at = now();
        }
        if (now() > start_ && !rpu_.awake()) slept = true;
    }

    sim::Cycle ready_at = sim::kNever;
    bool slept = false;

 private:
    Rpu& rpu_;
    net::PacketPtr pkt_;
    sim::Cycle start_;
};

TEST(RpuTest, TickPhaseBeginRxFreesLinkAtNPlusRPlusG) {
    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "idle skip on" : "idle skip off");
        Fixture f;
        f.kernel.set_idle_skip(skip);
        const sim::Cycle n = 1001;
        LinkFeeder feeder(f.kernel, f.rpu, f.make_pkt(1024, 1), n);
        f.boot(slot_config_firmware());
        f.kernel.run(n + 200 - f.kernel.now());
        EXPECT_EQ(feeder.ready_at, n + kXferR + kXferG);
        // With idle skip on, the parked RPU sleeps through its transfer.
        EXPECT_EQ(feeder.slept, skip);
    }
}

// A forwarder RPU sleeps through the transfer of a 1500 B frame, yet the
// descriptor lands, the send serializes and the core's time advances on
// exactly the cycles they do when every cycle is ticked.
TEST(RpuTest, ForwarderSleepsMidTransferWithExactTiming) {
    struct Timeline {
        sim::Cycle rx_complete = 0, fw_send = 0, egress = 0;
        uint64_t core_cycles = 0, instret = 0;
        bool asleep_mid_transfer = false;
        sim::Cycle probe = 0;            ///< 40 cycles after the send post
        bool asleep_after_post = false;  ///< at the probe
    };
    auto run = [](bool skip) {
        Timeline t;
        Fixture f;
        f.kernel.set_idle_skip(skip);
        f.rpu.set_trace([&](net::Stage stage, const net::Packet&) {
            if (stage == net::Stage::kRpuRxComplete) t.rx_complete = f.kernel.now();
            if (stage == net::Stage::kFwSend) t.fw_send = f.kernel.now();
        });
        f.rpu.set_egress_handler([&](net::PacketPtr) {
            t.egress = f.kernel.now();
            return true;
        });
        f.boot(forwarder_firmware());
        f.kernel.run(500);
        f.rpu.begin_rx(f.make_pkt(1500, 2));
        f.kernel.run(47);  // half of the 94-cycle transfer
        t.asleep_mid_transfer = !f.rpu.awake();
        // The core posts its send about 12 cycles after kRpuRxComplete and
        // is back in its poll loop at once, so the RPU sleeps again within
        // a few loop periods. Probe 40 cycles after the TX engine takes
        // the post (kFwSend), while it still streams the frame.
        f.kernel.run_until(
            [&] { return t.fw_send != 0 && f.kernel.now() == t.fw_send + 40; }, 500);
        t.probe = f.kernel.now();
        t.asleep_after_post = !f.rpu.awake();
        f.kernel.run(500);
        t.core_cycles = f.rpu.core().cycles();
        t.instret = f.rpu.core().instret();
        return t;
    };
    const Timeline on = run(true);
    const Timeline off = run(false);
    EXPECT_TRUE(on.asleep_mid_transfer);
    EXPECT_FALSE(off.asleep_mid_transfer);
    EXPECT_TRUE(on.asleep_after_post);
    EXPECT_FALSE(off.asleep_after_post);
    // kFwSend marks the post; the serializer streams the frame for 94
    // cycles and egresses it on the next: the probe fell inside the frame.
    EXPECT_LT(on.fw_send, on.rx_complete + 20);
    EXPECT_EQ(on.egress, on.fw_send + 94 + 1);
    EXPECT_EQ(on.probe, on.fw_send + 40);
    EXPECT_EQ(on.rx_complete, 600u + 93);  // first transfer tick 600, R = 94
    EXPECT_EQ(on.rx_complete, off.rx_complete);
    EXPECT_EQ(on.fw_send, off.fw_send);
    EXPECT_EQ(on.egress, off.egress);
    EXPECT_GT(on.egress, on.rx_complete);
    EXPECT_EQ(on.core_cycles, off.core_cycles);
    EXPECT_EQ(on.instret, off.instret);
}

TEST(RpuTest, ResourcesScaleWithMemories) {
    Fixture f;
    auto fp = f.rpu.base_resources();
    // BRAM: (64 KB IMEM + 32 KB DMEM) / 4 KB = 24 blocks; URAM: 1 MB / 32 KB.
    EXPECT_EQ(fp.bram, 24u);
    EXPECT_EQ(fp.uram, 32u);
    // Calibrated near the paper's "Single RPU" row (4541 LUTs / 3788 FFs).
    EXPECT_NEAR(double(fp.luts), 4541.0, 4541.0 * 0.1);
    EXPECT_NEAR(double(fp.regs), 3788.0, 3788.0 * 0.1);
}

}  // namespace
}  // namespace rosebud::rpu
