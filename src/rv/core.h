/// \file
/// RV32IM soft-core interpreter with a VexRiscv-calibrated timing model.
///
/// One Core instance lives inside each RPU. The core executes one
/// instruction per `tick` unless stalled; instruction costs mirror a small
/// 5-stage FPGA pipeline (1-cycle ALU, taken-branch flush, multi-cycle
/// loads depending on target memory, iterative divide). The memory system
/// is abstracted behind Bus; a bus access may also *retry* (e.g. a store to
/// a full broadcast FIFO), in which case the core re-issues the same
/// instruction next cycle — exactly the paper's "a write to the broadcast
/// memory region will be blocked until there is room in the FIFO".
///
/// Timing calibration (see DESIGN.md): the paper reports that the minimal
/// forwarder loop — read a descriptor and send it back — takes 16 cycles.
/// With the costs below, the 8-instruction forwarder firmware costs exactly
/// 16 cycles per iteration, reproducing the 250/125 MPPS caps of Section 6.
///
/// Host-speed note (DESIGN.md §11): the interpreter predecodes each
/// firmware word once into a dense `Decoded` dispatch record and executes
/// from that cache on every subsequent issue. Cold and warm paths run the
/// *same* record through the same handler, so cached execution is
/// instruction-for-instruction identical to re-decoding. The cache is
/// invalidated on reset()/firmware reload, on `fence.i`, and (by the bus
/// owner) on stores into the code region. It is mapped on demand-zero
/// pages (sim::Zeroed) at construction, and an invalidation hands its
/// pages back, so a core pays only for the code it runs.

#ifndef ROSEBUD_RV_CORE_H
#define ROSEBUD_RV_CORE_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "rv/isa.h"
#include "sim/zeroed.h"

namespace rosebud::rv {

/// Instruction cost table (cycles, including the issue cycle).
struct CostModel {
    uint32_t alu = 1;
    uint32_t branch_not_taken = 1;
    uint32_t branch_taken = 2;   ///< pipeline flush
    uint32_t jump = 2;           ///< jal/jalr
    uint32_t mul = 5;
    uint32_t div = 35;           ///< iterative divider
    uint32_t csr = 1;
    // Load/store costs come from the Bus (they depend on the target
    // memory region: BRAM, URAM, MMIO).
};

/// Abstract memory system seen by the core.
class Bus {
 public:
    virtual ~Bus() = default;

    /// Result of a load/store.
    struct Access {
        uint32_t value = 0;   ///< loaded value (zero-extended raw bytes)
        uint32_t cycles = 1;  ///< total cycles consumed by the instruction
        bool retry = false;   ///< true: re-issue next cycle (blocked)
        bool fault = false;   ///< true: unmapped/bad access -> core traps
    };

    /// Load `size` bytes (1, 2 or 4) at `addr`.
    virtual Access load(uint32_t addr, uint32_t size) = 0;

    /// Store `size` bytes (1, 2 or 4) of `value` at `addr`.
    virtual Access store(uint32_t addr, uint32_t size, uint32_t value) = 0;

    /// Instruction fetch (always 32-bit). Default: a plain load.
    /// Must be side-effect free and depend only on `addr >> 2`: with
    /// predecoding enabled the core fetches each word at most once per
    /// cache fill, not once per issue.
    virtual uint32_t fetch(uint32_t addr) = 0;

    /// Classification for the idle-loop watcher (see Core::set_idle_watch):
    /// return false for any address whose load may return different values
    /// over time while the bus owner's inputs are otherwise frozen (e.g. a
    /// cycle-counter register) or whose read has side effects (a popping
    /// MMIO register). Safe default: loads from plain memory are stable.
    virtual bool watch_safe_read(uint32_t addr) const {
        (void)addr;
        return true;
    }
};

/// Machine-mode CSRs implemented for interrupt support.
/// The core takes a machine external interrupt when the IRQ line is high,
/// MIE is set, and a trap is not already active — saving pc to mepc and
/// vectoring to mtvec, exactly enough for the paper's firmware patterns
/// (timer watchdogs, host poke handlers).
struct TrapCsrs {
    uint32_t mstatus = 0;  ///< bit 3 = MIE, bit 7 = MPIE
    uint32_t mtvec = 0;
    uint32_t mepc = 0;
    uint32_t mcause = 0;
};

/// One firmware word, decoded once into a dense dispatch record: a byte
/// opcode tag plus pre-extracted register indices and immediate, so the
/// hot interpreter loop is a load plus one dense switch instead of a full
/// field extraction per issue.
///
/// An all-zero record is an empty cache slot (kInvalid): the cache is
/// zero pages until the core fills it.
struct Decoded {
    enum Op : uint8_t {
        kInvalid = 0,  ///< cache slot empty — never produced by decode()
        kLui, kAuipc, kJal, kJalr,
        kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
        kLb, kLh, kLw, kLbu, kLhu, kLoadBad,
        kSb, kSh, kSw,
        kAddi, kSlli, kSlti, kSltiu, kXori, kSrli, kSrai, kOri, kAndi,
        kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
        kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
        kFence,   ///< fence — no-op in this memory model
        kFenceI,  ///< fence.i — flushes the decoded-instruction cache
        kMret, kHalt, kCsr,
        kIllegal,  ///< traps at issue (bad funct3 / unknown major opcode)
    };
    uint8_t op = kInvalid;
    uint8_t aux = 0;  ///< funct3 (load/store width, CSR op)
    Reg rd = zero;
    Reg rs1 = zero;
    Reg rs2 = zero;
    int32_t imm = 0;   ///< the immediate of the op's encoding format
    uint32_t raw = 0;  ///< original word (CSR index, mret check)
};

/// The interpreter.
class Core {
 public:
    Core(std::string name, Bus& bus, CostModel costs = CostModel{});

    /// Reset architectural state and start executing at `pc`.
    /// Also flushes the decoded-instruction cache (firmware reload).
    void reset(uint32_t pc);

    /// Advance one clock cycle (executes an instruction if not stalled).
    void tick();

    /// Run until halted or `max_cycles` elapse. Returns cycles consumed.
    /// (Convenience for firmware unit tests; the RPU uses tick().)
    uint64_t run(uint64_t max_cycles);

    /// True after ebreak/ecall or a bus fault.
    bool halted() const { return halted_; }

    /// Force-halt the core (host-side stop; memories are untouched).
    void stop() { halted_ = true; }

    /// Level-sensitive external interrupt line (wired by the RPU to the
    /// masked host-interrupt and timer status).
    void set_irq(bool level) { irq_line_ = level; }

    const TrapCsrs& csrs() const { return csrs_; }

    /// True if the halt was caused by a fault rather than ebreak/ecall.
    bool faulted() const { return faulted_; }

    uint32_t pc() const { return pc_; }
    uint32_t reg(Reg r) const { return regs_[r]; }
    void set_reg(Reg r, uint32_t v) {
        if (r != zero) regs_[r] = v;
    }

    /// Cycles since reset (drives the cycle CSR).
    uint64_t cycles() const { return cycles_; }

    /// Instructions retired since reset.
    uint64_t instret() const { return instret_; }

    // --- predecoded dispatch -------------------------------------------------

    /// Decode one instruction word into its dispatch record. Pure; exposed
    /// for tests and tooling.
    static Decoded decode(uint32_t insn);

    /// Enable/disable the decoded-instruction cache (on by default). With
    /// it off the core re-decodes on every issue — bit-identical behaviour,
    /// used as the reference mode by bench_simspeed.
    void set_predecode(bool on) { predecode_ = on; }
    bool predecode() const { return predecode_; }

    /// Drop every cached record (firmware reload, fence.i).
    void icache_invalidate();

    /// Drop cached records overlapping [addr, addr+len) — call on stores
    /// into the code region (self-modifying firmware).
    void icache_invalidate(uint32_t addr, uint32_t len);

    // --- idle-loop watcher ---------------------------------------------------
    //
    // While the watcher is armed (the bus owner has verified that every
    // core-visible input is frozen), the core snapshots its architectural
    // state (pc, regs, trap CSRs) at an anchor and compares on revisits of
    // the anchor PC. The first anchor is provisional: the first backward
    // (or self) transfer since arming moves it to the transfer's target,
    // the head of the loop the core now runs. An exact match proves a
    // periodic fixed point: with frozen inputs, pure loads, no stores and
    // no CSR access inside the window, the next `period` cycles replay
    // bit-identically forever. The owner may then sleep and later catch up
    // arithmetically (whole periods) plus a short replay of the remainder —
    // exact, because the replayed instructions observe the same frozen
    // inputs they would have observed live. Stores, loads the bus flags
    // unsafe (Bus::watch_safe_read), and CSR instructions abort the window.

    /// Arm/disarm the watcher. Arming resets detection; disarming clears
    /// any proven loop (inputs are no longer frozen).
    void set_idle_watch(bool on);
    bool idle_watch() const { return idle_watch_; }

    /// True once a periodic fixed point has been proven.
    bool stable_loop() const { return loop_stable_; }

    /// Cycles per proven loop iteration (valid while stable_loop()).
    uint64_t loop_period() const { return loop_period_; }

    /// Account `n` skipped cycles: a halted core just advances its cycle
    /// counter; a core in a proven stable loop advances whole periods
    /// arithmetically and replays the remainder tick-by-tick.
    void skip_idle_cycles(uint64_t n);

    // --- PC-sampling profiler ------------------------------------------------
    //
    // When enabled, every non-halted cycle is attributed to the PC of the
    // instruction consuming it: the issue cycle to the fetched PC, stall
    // cycles (multi-cycle ALU/div, memory latency) to the PC that issued
    // them, and bus-retry cycles (a store blocked on a full FIFO) to the
    // retrying PC — so a firmware spin on the broadcast region shows up as
    // cycles on the store, exactly like `perf annotate`. Off by default;
    // the only cost when off is one branch per tick.

    /// Enable/disable cycle attribution (state is kept across reset()).
    void set_profile(bool on) { profile_ = on; }
    bool profile() const { return profile_; }

    /// Per-PC cycle histogram; the values sum to profiled_cycles().
    const std::map<uint32_t, uint64_t>& pc_histogram() const { return pc_hist_; }

    /// Non-halted cycles observed while profiling was enabled.
    uint64_t profiled_cycles() const { return profiled_cycles_; }

    const std::string& name() const { return name_; }

 private:
    /// Decoded-cache coverage: 64 KB of code — the RPU imem size. PCs
    /// beyond it fall back to decode-on-the-fly (preserving e.g. the
    /// off-image ebreak convention of the test buses).
    static constexpr uint32_t kIcacheWords = 16384;

    /// Longest loop (in cycles) the watcher will try to prove periodic,
    /// and so also the re-anchor timeout: an anchor that has not been
    /// revisited with equal state this many cycles after its snapshot is
    /// replaced by the next issued instruction. Poll loops are a handful of
    /// instructions; a window this small keeps the snapshot/compare cost
    /// negligible.
    static constexpr uint64_t kMaxWatchPeriod = 64;

    void execute();
    /// Fetch+decode via the cache (fills lazily). Returns by value so a
    /// handler that invalidates the cache mid-instruction (fence.i, a
    /// store into its own code) cannot dangle.
    Decoded fetch_decoded(uint32_t pc);
    void exec_decoded(const Decoded& d);
    void watch_observe();

    std::string name_;
    Bus& bus_;
    CostModel costs_;

    std::array<uint32_t, 32> regs_{};
    uint32_t pc_ = 0;
    uint64_t cycles_ = 0;
    uint64_t instret_ = 0;
    uint32_t stall_ = 0;
    bool halted_ = true;
    bool faulted_ = false;
    bool irq_line_ = false;
    TrapCsrs csrs_;

    bool predecode_ = true;
    sim::Zeroed<Decoded> icache_{kIcacheWords};  ///< indexed pc >> 2

    bool idle_watch_ = false;
    bool watch_dirty_ = false;       ///< impure access seen since the anchor
    bool watch_have_anchor_ = false;
    bool watch_looped_ = false;      ///< a back-edge was seen since arming
    bool loop_stable_ = false;
    uint32_t watch_prev_pc_ = 0;     ///< pc of the previous observed issue
    uint32_t watch_pc_ = 0;
    std::array<uint32_t, 32> watch_regs_{};
    TrapCsrs watch_csrs_;
    uint64_t watch_cycles_ = 0;   ///< cycles() at the anchor
    uint64_t watch_instret_ = 0;  ///< instret() at the anchor
    uint64_t loop_period_ = 0;    ///< cycles per proven iteration
    uint64_t loop_instret_ = 0;   ///< instructions per proven iteration

    bool profile_ = false;
    uint32_t issue_pc_ = 0;  ///< PC that issued the in-flight instruction
    uint64_t profiled_cycles_ = 0;
    std::map<uint32_t, uint64_t> pc_hist_;
};

}  // namespace rosebud::rv

#endif  // ROSEBUD_RV_CORE_H
