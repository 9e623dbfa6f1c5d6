/// Static firmware verifier tests: every shipped firmware program must
/// verify with zero diagnostics, every hand-crafted bad image must be
/// rejected with the right diagnostic, and the host-side load gate must
/// enforce/warn per its policy.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.h"
#include "firmware/programs.h"
#include "obs/profile.h"
#include "rpu/descriptor.h"
#include "rv/assembler.h"
#include "rv/isa.h"
#include "sim/log.h"
#include "verify/verifier.h"

namespace rosebud {
namespace {

using namespace rosebud::rv;
using verify::Check;
using verify::Options;
using verify::Report;
using verify::Severity;

bool
has_error(const Report& r, Check c) {
    for (const auto& d : r.diags) {
        if (d.check == c && d.severity == Severity::kError) return true;
    }
    return false;
}

// --- shipped firmware ------------------------------------------------------

struct Shipped {
    const char* name;
    fwlib::Program prog;
};

std::vector<Shipped>
shipped_programs() {
    std::vector<Shipped> out;
    out.push_back({"forwarder", fwlib::forwarder()});
    out.push_back({"two_step_forwarder", fwlib::two_step_forwarder(16)});
    out.push_back({"firewall", fwlib::firewall()});
    out.push_back({"pigasus_hw_reorder", fwlib::pigasus_hw_reorder()});
    out.push_back({"pigasus_sw_reorder", fwlib::pigasus_sw_reorder()});
    out.push_back({"nat", fwlib::nat()});
    out.push_back({"nat_hash_prepended", fwlib::nat(fwlib::SlotParams{16, 16 * 1024}, true)});
    out.push_back({"forwarder_hash_prepended", fwlib::forwarder({}, true)});
    out.push_back({"chained_firewall", fwlib::chained_firewall(16)});
    out.push_back({"broadcast_sender", fwlib::broadcast_sender(64)});
    out.push_back({"broadcast_sink", fwlib::broadcast_sink()});
    return out;
}

TEST(Verifier, ShippedFirmwareVerifiesWithZeroDiagnostics) {
    for (const auto& s : shipped_programs()) {
        Options opts;
        opts.entry = s.prog.entry;
        Report r = verify::verify_image(s.prog.image, opts);
        EXPECT_TRUE(r.ok()) << s.name << ":\n" << r.summary();
        EXPECT_EQ(r.diags.size(), 0u) << s.name << ":\n" << r.summary();
        EXPECT_GT(r.instructions, 0u) << s.name;
        EXPECT_GE(r.blocks.size(), 2u) << s.name;
    }
}

TEST(Verifier, SlotWindowCrossCheckAcceptsPaperDefaults) {
    auto fw = fwlib::forwarder();
    Options opts;
    opts.slots = {32, 16 * 1024, rpu::kPmemBase};
    Report r = verify::verify_image(fw.image, opts);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, SlotWindowOverflowingPmemIsRejected) {
    auto fw = fwlib::forwarder();
    Options opts;
    opts.slots = {128, 16 * 1024, rpu::kPmemBase};  // 2 MB > 1 MB of PMEM
    Report r = verify::verify_image(fw.image, opts);
    EXPECT_TRUE(has_error(r, Check::kSlots)) << r.summary();
}

TEST(Verifier, CfgDotRendersBlocksAndEdges) {
    auto fw = fwlib::forwarder();
    Report r = verify::verify_image(fw.image, Options{});
    std::string dot = verify::cfg_dot(fw.image, r, "forwarder");
    EXPECT_NE(dot.find("digraph \"forwarder\""), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);  // at least one edge
    EXPECT_NE(dot.find("lui"), std::string::npos); // disassembly in labels
}

// --- hand-crafted bad firmware (satellite: negative tests) -----------------

TEST(Verifier, OutOfBoundsStoreIsRejected) {
    Assembler a;
    a.li(t0, 0x03000000);  // past the broadcast region
    a.sw(zero, 0, t0);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
}

TEST(Verifier, StoreToImemIsRejected) {
    Assembler a;
    a.li(t0, 0x100);  // inside IMEM: loads are fine, stores fault
    a.sw(zero, 0, t0);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
}

TEST(Verifier, JumpPastImemIsRejected) {
    std::vector<uint32_t> image = {
        encode_j(0x40000, zero),  // target 0x40000 is past the 64 KB IMEM
        0x00100073,               // ebreak
    };
    Report r = verify::verify_image(image, Options{});
    EXPECT_TRUE(has_error(r, Check::kCfg)) << r.summary();
}

TEST(Verifier, JumpPastImageEndIsRejected) {
    std::vector<uint32_t> image = {
        encode_j(0x1000, zero),  // inside IMEM but past the loaded image
        0x00100073,
    };
    Report r = verify::verify_image(image, Options{});
    EXPECT_TRUE(has_error(r, Check::kCfg)) << r.summary();
}

TEST(Verifier, MisalignedBranchTargetIsRejected) {
    std::vector<uint32_t> image = {
        encode_b(2, zero, zero, 0),  // beq zero, zero, +2: lands mid-word
        0x00100073,
    };
    Report r = verify::verify_image(image, Options{});
    EXPECT_TRUE(has_error(r, Check::kCfg)) << r.summary();
}

TEST(Verifier, UninitializedRegisterReadIsRejected) {
    Assembler a;
    a.addi(t1, t0, 1);  // t0 never written
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kUninit)) << r.summary();
}

TEST(Verifier, ProvablyInfiniteLoopIsRejected) {
    Assembler a;
    a.li(t0, 0);
    a.label("self");
    a.j("self");  // no exit edge, no MMIO access, no interrupts
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kLoop)) << r.summary();
}

TEST(Verifier, PollLoopWithExitEdgeIsAccepted) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.label("poll");
    a.lw(t0, rpu::kRegRxReady, gp);
    a.beqz(t0, "poll");
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, MmioLoopWithoutExitIsAcceptedAsObservable) {
    // A loop that hammers the debug register forever: no exit edge, but
    // the stores are host-visible side effects, so it is not "provably
    // useless" and must not be flagged.
    Assembler a;
    a.lui(gp, 0x2000);
    a.li(t0, 1);
    a.label("spin");
    a.sw(t0, rpu::kRegDebugLow, gp);
    a.j("spin");
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, ReservedCsrAccessIsRejected) {
    Assembler a;
    a.li(t0, 1);
    a.csrrw(zero, 0x123, t0);  // not implemented by the core
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kCsr)) << r.summary();
}

TEST(Verifier, ReservedMmioOffsetIsRejected) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.sw(zero, 0x0c, gp);  // gap between RecvRelease (0x08) and SendLow (0x10)
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMmio)) << r.summary();
}

TEST(Verifier, LoadFromWriteOnlyMmioRegisterIsRejected) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegSendLow, gp);  // TX latch is write-only
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMmio)) << r.summary();
}

TEST(Verifier, FallOffTheEndIsRejected) {
    Assembler a;
    a.li(t0, 1);  // no terminator follows
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kCfg)) << r.summary();
}

TEST(Verifier, UndecodableInstructionIsRejected) {
    std::vector<uint32_t> image = {0xffffffffu};
    Report r = verify::verify_image(image, Options{});
    EXPECT_TRUE(has_error(r, Check::kDecode)) << r.summary();
}

TEST(Verifier, EmptyImageIsRejected) {
    Report r = verify::verify_image({}, Options{});
    EXPECT_FALSE(r.ok());
}

TEST(Verifier, UnreachableCodeIsAWarningNotAnError) {
    Assembler a;
    a.ebreak();
    a.li(t0, 42);  // dead code after the terminator
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_FALSE(r.check_passed(Check::kUnreachable));
    EXPECT_GE(r.warnings(), 1u);
}

TEST(Verifier, InterruptHandlerDiscoveredThroughMtvecIsAnalyzed) {
    // The handler installed via a constant mtvec write becomes a CFG root;
    // a bad store inside it must still be caught.
    Assembler a;
    a.li(t0, 0x40);
    a.csrrw(zero, kCsrMtvec, t0);
    a.li(t0, 8);
    a.csrrs(zero, kCsrMstatus, t0);
    a.ebreak();
    while (a.here() < 0x40) a.nop();
    a.label("handler");
    a.li(t1, 0x03000000);
    a.sw(zero, 0, t1);  // out of bounds, inside the handler
    a.mret();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
    EXPECT_EQ(r.roots.size(), 2u);
}

// --- M-extension interval transfer functions --------------------------------

TEST(Verifier, RemuBoundsAnUnknownValueForAddressing) {
    // The `hash % N` steering idiom: an unknown word modulo a constant is
    // a valid table index. Without the remu transfer function the result
    // is top and the DMEM store below is flagged out of bounds.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);  // unknown but initialized word
    a.li(t1, 16);
    a.remu(t2, t0, t1);  // [0, 15]
    a.slli(t2, t2, 2);   // [0, 60]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);  // provably inside DMEM
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, DivuBoundsTheQuotientByTheDivisor) {
    // An unknown word divided by 2^26 is at most 63: scaled by 4 it stays
    // inside DMEM. Exercises the divu corner arithmetic.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.li(t1, 1 << 26);
    a.divu(t2, t0, t1);  // [0, 63]
    a.slli(t2, t2, 2);   // [0, 252]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, DivByPositiveConstantKeepsNonNegativeRangeExact) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.andi(t0, t0, 0x7ff);  // [0, 2047]
    a.li(t1, 8);
    a.div(t2, t0, t1);  // [0, 255]
    a.slli(t2, t2, 2);  // [0, 1020]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, RemKeepsNonNegativeDividendSign) {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.andi(t0, t0, 0x7ff);  // non-negative dividend [0, 2047]
    a.li(t1, 32);
    a.rem(t2, t0, t1);  // [0, 31]
    a.slli(t2, t2, 2);  // [0, 124]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, RemuRangePlacedOutsideEveryRegionIsRejected) {
    // Negative control that only fires *because of* the remu transfer
    // function: the bounded range [0x03000000, 0x0300000f] is provably
    // outside every mapped region. With remu going to top, the address
    // would be unknown and the verifier could not prove the violation.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.li(t1, 16);
    a.remu(t2, t0, t1);    // [0, 15]
    a.li(t3, 0x03000000);  // past the broadcast region
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
}

TEST(Verifier, DivRangePlacedOutsideEveryRegionIsRejected) {
    // Same shape for signed div: [0, 2047]/2 = [0, 1023], provably out of
    // bounds once rebased past the mapped regions.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.andi(t0, t0, 0x7ff);
    a.li(t1, 2);
    a.div(t2, t0, t1);     // [0, 1023]
    a.li(t3, 0x03000000);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
}

// --- host load gate --------------------------------------------------------

SystemConfig
small_cfg() {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    return cfg;
}

TEST(VerifierGate, HostRejectsBadFirmwareByDefault) {
    System sys(small_cfg());
    EXPECT_THROW(sys.host().load_firmware_all({0xffffffffu}), sim::FatalError);
    EXPECT_THROW(sys.host().load_firmware(0, {0xffffffffu}), sim::FatalError);
}

TEST(VerifierGate, WarnModeLoadsBadFirmwareAnyway) {
    System sys(small_cfg());
    sys.host().set_firmware_check(host::FirmwareCheck::kWarn);
    EXPECT_NO_THROW(sys.host().load_firmware(0, {0xffffffffu}));
    sys.host().set_firmware_check(host::FirmwareCheck::kOff);
    EXPECT_NO_THROW(sys.host().load_firmware(0, {0xffffffffu}));
}

TEST(VerifierGate, ReconfigureVerifiesBeforeDraining) {
    System sys(small_cfg());
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);
    sim::Rng rng(7);
    EXPECT_THROW(sys.host().reconfigure(0, nullptr, {0xffffffffu}, 0, rng),
                 sim::FatalError);
    // The RPU was never halted: the gate fired before the drain started.
    EXPECT_FALSE(sys.rpu(0).core_halted());
}

// --- bounded-shift interval transfer functions ------------------------------

TEST(Verifier, SllWithBoundedAmountScalesTheRange) {
    // A table stride computed as 1 << k for unknown k in [0, 7]: the
    // bounded-shift transfer keeps [1, 128], which rebased into DMEM is a
    // provably legal store. Without it the result is top.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);  // unknown word
    a.andi(t0, t0, 0x7);             // shift amount [0, 7]
    a.li(t1, 1);
    a.sll(t2, t1, t0);  // [1, 128]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, SrlWithBoundedAmountBoundsAnUnknownWord) {
    // An unknown word shifted right by at least 24 is at most 255 even
    // though the operand itself is top: the minimum-shift fallback.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);  // top
    a.lw(t1, rpu::kRegRxReady, gp);
    a.andi(t1, t1, 0x7);
    a.addi(t1, t1, 24);  // amount [24, 31]
    a.srl(t2, t0, t1);   // [0, 255]
    a.slli(t2, t2, 2);   // [0, 1020]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, SraWithBoundedAmountKeepsExactCorners) {
    // [0, 2047] >> [4, 7] = [0, 127]: a word-range operand takes the exact
    // corner evaluation, not the unknown-operand fallback.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.andi(t0, t0, 0x7ff);  // [0, 2047]
    a.lw(t1, rpu::kRegRxReady, gp);
    a.andi(t1, t1, 0x3);
    a.addi(t1, t1, 4);  // amount [4, 7]
    a.sra(t2, t0, t1);  // [0, 127]
    a.slli(t2, t2, 2);  // [0, 508]
    a.li(t3, rpu::kDmemBase);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, SrlRangePlacedOutsideEveryRegionIsRejected) {
    // Negative control that only fires *because of* the shift transfer:
    // top >> [28, 31] is [0, 15], provably outside every mapped region once
    // rebased past the broadcast window. With the shift going to top the
    // address would be unknown and the violation unprovable.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);  // top
    a.lw(t1, rpu::kRegRxReady, gp);
    a.andi(t1, t1, 0x3);
    a.addi(t1, t1, 28);  // amount [28, 31]
    a.srl(t2, t0, t1);   // [0, 15]
    a.li(t3, 0x03000000);
    a.add(t3, t3, t2);
    a.sw(zero, 0, t3);
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(has_error(r, Check::kMemory)) << r.summary();
}

// --- line-rate certificate ---------------------------------------------------

/// The five dataplane images named by the line-rate acceptance criteria
/// (plus the hash-steered NAT and forwarder variants): each must certify a
/// finite WCET, a finite stack bound, and a clean text-segment
/// write-separation proof.
std::vector<Shipped>
dataplane_programs() {
    std::vector<Shipped> out;
    out.push_back({"forwarder", fwlib::forwarder()});
    out.push_back({"two_step_forwarder", fwlib::two_step_forwarder(16)});
    out.push_back({"firewall", fwlib::firewall()});
    out.push_back({"pigasus_hw_reorder", fwlib::pigasus_hw_reorder()});
    out.push_back({"pigasus_sw_reorder", fwlib::pigasus_sw_reorder()});
    out.push_back({"nat", fwlib::nat()});
    out.push_back({"nat_hash_prepended", fwlib::nat(fwlib::SlotParams{16, 16 * 1024}, true)});
    out.push_back({"forwarder_hash_prepended", fwlib::forwarder({}, true)});
    return out;
}

TEST(Certifier, ShippedDataplaneFirmwareCertifiesFinite) {
    for (const auto& s : dataplane_programs()) {
        Options opts;
        opts.entry = s.prog.entry;
        Report r = verify::verify_image(s.prog.image, opts);
        const verify::Certificate& cert = r.cert;
        EXPECT_TRUE(cert.wcet_bounded) << s.name;
        EXPECT_GT(cert.wcet_instructions, 0u) << s.name;
        EXPECT_GE(cert.wcet_cycles, cert.wcet_instructions) << s.name;
        EXPECT_TRUE(cert.stack_bounded) << s.name;
        EXPECT_TRUE(cert.text_write_separation) << s.name;
        EXPECT_EQ(cert.unproven_stores, 0u) << s.name;
        ASSERT_FALSE(cert.roots.empty()) << s.name;
        for (const auto& root : cert.roots) {
            EXPECT_TRUE(root.bounded) << s.name;
        }
        // Per-activation semantics: any unbounded cycle left in the CFG must
        // be an observable service/poll loop, or the WCET could not be finite.
        for (const auto& lb : cert.loops) {
            if (!lb.bounded) {
                EXPECT_TRUE(lb.observable) << s.name;
            }
        }
    }
}

TEST(Certifier, CountedDelayLoopIsBoundedAndExemptFromBusyLoopCheck) {
    // A pure delay loop has no observable side effect; only the trip-count
    // inference keeps it out of the busy-loop diagnostic, and the inferred
    // bound (100 trips + slack) feeds the WCET.
    Assembler a;
    a.li(t0, 0);
    a.li(t1, 100);
    a.label("spin");
    a.addi(t0, t0, 1);
    a.blt(t0, t1, "spin");
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_FALSE(has_error(r, Check::kLoop)) << r.summary();
    ASSERT_EQ(r.cert.loops.size(), 1u);
    EXPECT_TRUE(r.cert.loops[0].bounded);
    EXPECT_GE(r.cert.loops[0].max_trips, 100u);
    EXPECT_LE(r.cert.loops[0].max_trips, 110u);  // formula slack only
    EXPECT_TRUE(r.cert.wcet_bounded);
    EXPECT_GE(r.cert.wcet_instructions, 200u);  // ~2 insns x 100 trips
}

TEST(Certifier, UnknownTripComputeLoopIsUnbounded) {
    // The limit register is an arbitrary MMIO word and the body touches
    // nothing observable: no trip bound exists, so the certificate must
    // report an unbounded WCET — while the *safety* verdict stays clean
    // (the loop has an exit edge; it is merely unprovable, not illegal).
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t1, rpu::kRegRxReady, gp);  // unknown trip limit
    a.li(t0, 0);
    a.label("spin");
    a.addi(t0, t0, 1);
    a.bne(t0, t1, "spin");
    a.ebreak();
    Report r = verify::verify_image(a.assemble(), Options{});
    EXPECT_TRUE(r.ok()) << r.summary();
    ASSERT_EQ(r.cert.loops.size(), 1u);
    EXPECT_FALSE(r.cert.loops[0].bounded);
    EXPECT_FALSE(r.cert.loops[0].observable);
    EXPECT_FALSE(r.cert.wcet_bounded);
    EXPECT_EQ(r.cert.wcet_instructions, 0u);
}

TEST(Certifier, CfgDotCarriesCostsLoopBoundsAndCriticalPath) {
    auto fw = fwlib::pigasus_sw_reorder();
    Options opts;
    opts.entry = fw.entry;
    Report r = verify::verify_image(fw.image, opts);
    std::string dot = verify::cfg_dot(fw.image, r, "ids-sw");
    EXPECT_NE(dot.find("cyc]"), std::string::npos);       // per-block cost
    EXPECT_NE(dot.find("loop <="), std::string::npos);    // counted loop bound
    EXPECT_NE(dot.find("service loop"), std::string::npos);
    EXPECT_NE(dot.find("color=red"), std::string::npos);  // critical path
}

TEST(Certifier, CertificateJsonCarriesTheBounds) {
    auto fw = fwlib::forwarder();
    Report r = verify::verify_image(fw.image, Options{});
    std::string json = verify::certificate_json(r, "forwarder");
    EXPECT_NE(json.find("\"name\":\"forwarder\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"wcet\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"bounded\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"text_write_separation\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"stack\":"), std::string::npos) << json;
}

// --- obs PC-profiler cross-check --------------------------------------------

TEST(Certifier, WcetCrossCheckUnitVerdicts) {
    obs::CoreProfile p;
    p.name = "rpu0";
    p.halted = true;
    p.instret = 100;

    verify::Certificate cert;
    cert.wcet_bounded = true;
    cert.wcet_instructions = 99;  // deliberately understated
    auto checks = obs::wcet_cross_check({p}, cert);
    ASSERT_EQ(checks.size(), 1u);
    EXPECT_TRUE(checks[0].applicable);
    EXPECT_FALSE(checks[0].ok);

    cert.wcet_instructions = 100;  // exact bound: sound
    EXPECT_TRUE(obs::wcet_cross_check({p}, cert)[0].ok);

    p.halted = false;  // live service loop: not applicable, never fails
    auto live = obs::wcet_cross_check({p}, cert);
    EXPECT_FALSE(live[0].applicable);
    EXPECT_TRUE(live[0].ok);
}

TEST(Certifier, ObsCrossCheckFiresOnUnderstatedBoundEndToEnd) {
    // Run a halting image on real cores, certify it, then hand the profiler
    // a certificate with a deliberately understated bound: the cross-check
    // must fire for every core, and must pass with the genuine certificate.
    Assembler a;
    a.li(t0, 1);
    a.addi(t0, t0, 1);
    a.addi(t0, t0, 1);
    a.ebreak();
    auto image = a.assemble();

    System sys(small_cfg());
    sys.host().load_firmware_all(image);
    sys.host().boot_all();
    sys.run_cycles(200);
    auto profiles = obs::collect_profiles(sys);
    ASSERT_FALSE(profiles.empty());
    for (const auto& p : profiles) {
        ASSERT_TRUE(p.halted);
        ASSERT_GT(p.instret, 0u);
    }

    Report r = verify::verify_image(image, Options{});
    ASSERT_TRUE(r.cert.wcet_bounded);
    for (const auto& c : obs::wcet_cross_check(profiles, r.cert)) {
        EXPECT_TRUE(c.ok) << c.core << ": observed " << c.observed
                          << " > bound " << c.bound;
    }

    verify::Certificate lied = r.cert;
    lied.wcet_instructions = profiles[0].instret - 1;
    for (const auto& c : obs::wcet_cross_check(profiles, lied)) {
        EXPECT_TRUE(c.applicable);
        EXPECT_FALSE(c.ok);
    }
}

TEST(Certifier, UnprovenStoreBreaksTextWriteSeparation) {
    // The store address is an arbitrary word: the safety pass cannot prove
    // it out of bounds (sound for rejection), but the certificate cannot
    // prove it misses the text segment either, a self-modifying-code risk.
    Assembler a;
    a.lui(gp, 0x2000);
    a.lw(t0, rpu::kRegRxReady, gp);
    a.sw(zero, 0, t0);
    a.ebreak();
    Report r = verify::verify_image(a.assemble());
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_FALSE(r.cert.text_write_separation);
    EXPECT_EQ(r.cert.unproven_stores, 1u);
}

}  // namespace
}  // namespace rosebud
