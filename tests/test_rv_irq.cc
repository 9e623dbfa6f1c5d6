/// Machine-mode interrupt tests: CSR access instructions, trap
/// entry/return semantics on the bare core, and the paper's watchdog
/// pattern on a full RPU ("software on the RISC-V can detect the hang
/// using internal timer interrupt, and send its state to the host").

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.h"
#include "rpu/descriptor.h"
#include "rv/assembler.h"
#include "rv/core.h"

namespace rosebud::rv {
namespace {

class RamBus : public Bus {
 public:
    std::vector<uint32_t> code;
    Access load(uint32_t, uint32_t) override { return {}; }
    Access store(uint32_t, uint32_t, uint32_t) override { return {}; }
    uint32_t fetch(uint32_t addr) override {
        if (addr / 4 < code.size()) return code[addr / 4];
        return 0x00100073;
    }
};

TEST(Csr, ReadWriteSetClear) {
    RamBus bus;
    Assembler a;
    a.li(t0, 0x1234);
    a.csrrw(zero, kCsrMtvec, t0);   // mtvec = 0x1234
    a.csrrs(t1, kCsrMtvec, zero);   // t1 = mtvec
    a.li(t2, 0x0204);
    a.csrrs(zero, kCsrMtvec, t2);   // set bits
    a.csrrs(t3, kCsrMtvec, zero);
    a.li(t4, 0x0030);
    a.csrrc(zero, kCsrMtvec, t4);   // clear bits
    a.csrrs(t5, kCsrMtvec, zero);
    a.ebreak();
    bus.code = a.assemble();
    Core core("t", bus);
    core.reset(0);
    core.run(1000);
    EXPECT_EQ(core.reg(t1), 0x1234u);
    EXPECT_EQ(core.reg(t3), 0x1234u | 0x0204u);
    EXPECT_EQ(core.reg(t5), (0x1234u | 0x0204u) & ~0x0030u);
}

TEST(Irq, NotTakenWhileDisabled) {
    RamBus bus;
    Assembler a;
    for (int i = 0; i < 20; ++i) a.addi(t0, t0, 1);
    a.ebreak();
    bus.code = a.assemble();
    Core core("t", bus);
    core.reset(0);
    core.set_irq(true);  // MIE is off: nothing happens
    core.run(1000);
    EXPECT_EQ(core.reg(t0), 20u);
}

TEST(Irq, TrapEntryAndReturn) {
    RamBus bus;
    Assembler a;
    // Main: set mtvec, enable MIE, count in a loop.
    a.li(t1, 0);            // handler-invocation count
    a.lui(t0, 0);
    a.addi(t0, t0, 0x100);  // handler address (word 64)
    a.csrrw(zero, kCsrMtvec, t0);
    a.li(t0, 8);
    a.csrrs(zero, kCsrMstatus, t0);  // MIE = 1
    a.label("loop");
    a.addi(t2, t2, 1);
    a.li(t3, 2000);
    a.blt(t2, t3, "loop");
    a.ebreak();
    // Pad to the handler address.
    while (a.here() < 0x100) a.nop();
    a.label("handler");
    a.addi(t1, t1, 1);
    a.csrrs(t4, kCsrMcause, zero);
    a.mret();
    bus.code = a.assemble();

    Core core("t", bus);
    core.reset(0);
    core.run(30);
    EXPECT_EQ(core.reg(t1), 0u);
    core.set_irq(true);
    core.run(4);          // enough to take the trap
    core.set_irq(false);  // level-sensitive: drop the line promptly
    core.run(40);
    EXPECT_EQ(core.reg(t1), 1u);           // handler ran exactly once
    EXPECT_EQ(core.reg(t4), 0x8000000bu);  // machine external interrupt
    // Main loop resumed and still makes progress.
    uint32_t before = core.reg(t2);
    core.run(50);
    EXPECT_GT(core.reg(t2), before);
}

TEST(Irq, MaskedInsideHandlerUntilMret) {
    RamBus bus;
    Assembler a;
    a.li(t1, 0);
    a.lui(t0, 0);
    a.addi(t0, t0, 0x100);
    a.csrrw(zero, kCsrMtvec, t0);
    a.li(t0, 8);
    a.csrrs(zero, kCsrMstatus, t0);
    a.label("loop");
    a.j("loop");
    while (a.here() < 0x100) a.nop();
    a.label("handler");
    a.addi(t1, t1, 1);
    // Spin inside the handler for a while; the still-high line must NOT
    // re-enter (MIE was cleared on trap entry).
    a.li(t2, 30);
    a.label("spin");
    a.addi(t2, t2, -1);
    a.bnez(t2, "spin");
    a.mret();
    bus.code = a.assemble();

    Core core("t", bus);
    core.reset(0);
    core.run(20);
    core.set_irq(true);
    core.run(60);  // handler runs ~95 cycles; still inside
    EXPECT_EQ(core.reg(t1), 1u);
    core.run(200);  // after mret with the line still high: re-enters
    EXPECT_GT(core.reg(t1), 1u);
}

/// The paper's debugging flow: firmware arms the watchdog, "hangs" in a
/// loop, the timer interrupt fires, and the handler dumps state to the
/// host debug channel.
std::vector<uint32_t>
hang_firmware() {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lui(t0, 0);
    a.addi(t0, t0, 0x200);
    a.csrrw(zero, kCsrMtvec, t0);
    a.li(t0, int32_t(rpu::kIrqTimer));
    a.sw(t0, rpu::kRegIrqMask, gp);  // unmask the timer at the interconnect
    a.li(t0, 8);
    a.csrrs(zero, kCsrMstatus, t0);  // enable interrupts at the core
    a.li(t0, 500);
    a.sw(t0, rpu::kRegTimerCmp, gp);  // arm the watchdog: 500 cycles
    a.label("hang");                  // the "bug": an infinite loop
    a.j("hang");
    while (a.here() < 0x200) a.nop();
    a.label("handler");
    a.li(t1, int32_t(rpu::kIrqTimer));
    a.sw(t1, rpu::kRegIrqAck, gp);    // ack so the level drops
    a.lui(t2, 0xdead);                // report the hang to the host
    a.sw(t2, rpu::kRegDebugLow, gp);
    a.csrrs(t3, kCsrMepc, zero);      // where we were stuck
    a.sw(t3, rpu::kRegDebugHigh, gp);
    a.ebreak();                       // spin-wait for the host (Section 3.4)
    return a.assemble();
}

/// A healthy main loop that re-arms the watchdog before it fires.
std::vector<uint32_t>
rearm_firmware() {
    Assembler a;
    a.lui(gp, 0x2000);
    a.lui(t0, 0);
    a.addi(t0, t0, 0x200);
    a.csrrw(zero, kCsrMtvec, t0);
    a.li(t0, int32_t(rpu::kIrqTimer));
    a.sw(t0, rpu::kRegIrqMask, gp);
    a.li(t0, 8);
    a.csrrs(zero, kCsrMstatus, t0);
    a.mv(t1, zero);  // heartbeat counter
    a.label("loop");
    a.li(t0, 500);
    a.sw(t0, rpu::kRegTimerCmp, gp);  // kick the dog
    a.addi(t1, t1, 1);
    a.sw(t1, rpu::kRegDebugLow, gp);  // heartbeat
    a.li(t2, 50);
    a.label("work");
    a.addi(t2, t2, -1);
    a.bnez(t2, "work");
    a.j("loop");
    while (a.here() < 0x200) a.nop();
    a.label("handler");  // must never run
    a.lui(t3, 0xbad);
    a.sw(t3, rpu::kRegDebugHigh, gp);
    a.mret();
    return a.assemble();
}

std::unique_ptr<System>
boot_rpu0(const std::vector<uint32_t>& image, bool idle_skip = true) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    cfg.tuning.idle_skip = idle_skip;
    auto sys = std::make_unique<System>(cfg);
    sys->host().load_firmware(0, image);
    sys->host().boot(0);
    return sys;
}

TEST(Watchdog, TimerInterruptReportsHangToHost) {
    std::unique_ptr<System> owned = boot_rpu0(hang_firmware());
    System& sys = *owned;

    sys.run_cycles(400);
    EXPECT_EQ(sys.host().debug_low(0), 0u);  // not fired yet
    sys.run_cycles(400);
    EXPECT_EQ(sys.host().debug_low(0), 0xdeadu << 12);
    // mepc points into the hang loop.
    uint32_t hang_pc = sys.host().debug_high(0);
    EXPECT_GE(hang_pc, 0x20u);
    EXPECT_LT(hang_pc, 0x200u);
    EXPECT_TRUE(sys.rpu(0).core_halted());
}

TEST(Watchdog, RearmedTimerKeepsQuietSystemAlive) {
    std::unique_ptr<System> owned = boot_rpu0(rearm_firmware());
    System& sys = *owned;
    sys.run_cycles(5000);
    EXPECT_GT(sys.host().debug_low(0), 10u);   // heartbeats flowing
    EXPECT_EQ(sys.host().debug_high(0), 0u);   // watchdog never fired
    EXPECT_FALSE(sys.rpu(0).core_halted());
}

// The watchdog is an absolute due cycle: a core hung in a pure loop lets
// the whole system sleep until the timer fires, and the handler still
// runs on exactly the cycle it does when every cycle is ticked.
TEST(Watchdog, FiresOnTheSameCycleWithIdleSkipOnAndOff) {
    struct Report {
        sim::Cycle cycle = 0, fast_forwarded = 0;
        uint64_t core_cycles = 0, instret = 0;
        uint32_t mepc = 0;
    };
    auto report = [](bool idle_skip) {
        std::unique_ptr<System> sys = boot_rpu0(hang_firmware(), idle_skip);
        const bool hit = sys->kernel().run_until(
            [&] { return sys->host().debug_low(0) != 0; }, 2000);
        EXPECT_TRUE(hit);
        return Report{sys->kernel().now(), sys->kernel().fast_forwarded_cycles(),
                      sys->rpu(0).core().cycles(), sys->rpu(0).core().instret(),
                      sys->host().debug_high(0)};
    };
    const Report on = report(true);
    const Report off = report(false);
    EXPECT_EQ(on.cycle, off.cycle);
    // Pinned, so a dog that fires a tick early or late in both modes is
    // caught too: the boot sequence, 500 timer ticks, then the report.
    EXPECT_EQ(on.cycle, 518u);
    EXPECT_GT(on.fast_forwarded, 0u);  // everything slept until the timer was due
    EXPECT_EQ(off.fast_forwarded, 0u);
    // The hung core's skipped loop iterations are replayed exactly.
    EXPECT_EQ(on.core_cycles, off.core_cycles);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.mepc, off.mepc);

    // The re-armed dog never fires either way, and the heartbeat loop
    // reaches the same state.
    std::unique_ptr<System> a = boot_rpu0(rearm_firmware(), true);
    std::unique_ptr<System> b = boot_rpu0(rearm_firmware(), false);
    a->run_cycles(5000);
    b->run_cycles(5000);
    EXPECT_EQ(a->host().debug_low(0), b->host().debug_low(0));
    EXPECT_EQ(a->host().debug_high(0), 0u);
    EXPECT_EQ(b->host().debug_high(0), 0u);
    EXPECT_EQ(a->rpu(0).core().cycles(), b->rpu(0).core().cycles());
    EXPECT_EQ(a->rpu(0).core().instret(), b->rpu(0).core().instret());
}

}  // namespace
}  // namespace rosebud::rv
