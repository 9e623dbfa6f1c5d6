#include "verify/verifier.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "mem/memory.h"
#include "obs/json.h"
#include "rv/disasm.h"
#include "rv/isa.h"

namespace rosebud::verify {

namespace {

using rv::Reg;

// --- decoding ---------------------------------------------------------------

/// Strict RV32IM decode classes. The interpreter in rv/core.cc is lenient
/// in places (it executes some malformed encodings); the verifier follows
/// the unprivileged spec so firmware stays portable to a real VexRiscv.
enum class Op {
    kIllegal,
    kLui,
    kAuipc,
    kJal,
    kJalr,
    kBranch,
    kLoad,
    kStore,
    kAluImm,
    kAluReg,
    kFence,
    kEcall,
    kEbreak,
    kMret,
    kCsr,
};

struct Insn {
    Op op = Op::kIllegal;
    Reg rd{};
    Reg rs1{};
    Reg rs2{};
    int32_t imm = 0;
    uint32_t funct3 = 0;
    uint32_t funct7 = 0;
    uint32_t csr = 0;
};

Insn
decode(uint32_t w) {
    Insn d;
    d.rd = rv::dec_rd(w);
    d.rs1 = rv::dec_rs1(w);
    d.rs2 = rv::dec_rs2(w);
    d.funct3 = rv::dec_funct3(w);
    d.funct7 = rv::dec_funct7(w);
    switch (rv::dec_opcode(w)) {
    case rv::kOpLui:
        d.op = Op::kLui;
        d.imm = rv::dec_imm_u(w);
        break;
    case rv::kOpAuipc:
        d.op = Op::kAuipc;
        d.imm = rv::dec_imm_u(w);
        break;
    case rv::kOpJal:
        d.op = Op::kJal;
        d.imm = rv::dec_imm_j(w);
        break;
    case rv::kOpJalr:
        if (d.funct3 != 0) break;
        d.op = Op::kJalr;
        d.imm = rv::dec_imm_i(w);
        break;
    case rv::kOpBranch:
        if (d.funct3 == 2 || d.funct3 == 3) break;
        d.op = Op::kBranch;
        d.imm = rv::dec_imm_b(w);
        break;
    case rv::kOpLoad:
        if (d.funct3 == 3 || d.funct3 > 5) break;
        d.op = Op::kLoad;
        d.imm = rv::dec_imm_i(w);
        break;
    case rv::kOpStore:
        if (d.funct3 > 2) break;
        d.op = Op::kStore;
        d.imm = rv::dec_imm_s(w);
        break;
    case rv::kOpImm:
        d.imm = rv::dec_imm_i(w);
        if (d.funct3 == 1 && d.funct7 != 0) break;
        if (d.funct3 == 5 && d.funct7 != 0 && d.funct7 != 0x20) break;
        d.op = Op::kAluImm;
        break;
    case rv::kOpReg:
        if (d.funct7 == 0x01 || d.funct7 == 0x00 ||
            (d.funct7 == 0x20 && (d.funct3 == 0 || d.funct3 == 5))) {
            d.op = Op::kAluReg;
        }
        break;
    case rv::kOpMiscMem:
        if (d.funct3 == 0) d.op = Op::kFence;
        break;
    case rv::kOpSystem:
        if (w == 0x00000073) {
            d.op = Op::kEcall;
        } else if (w == 0x00100073) {
            d.op = Op::kEbreak;
        } else if (w == 0x30200073) {
            d.op = Op::kMret;
        } else if (d.funct3 >= 1 && d.funct3 <= 3) {
            d.op = Op::kCsr;
            d.csr = w >> 20;
        }
        break;
    default:
        break;
    }
    return d;
}

bool
reads_rs1(const Insn& d) {
    switch (d.op) {
    case Op::kJalr:
    case Op::kBranch:
    case Op::kLoad:
    case Op::kStore:
    case Op::kAluImm:
    case Op::kAluReg:
    case Op::kCsr:
        return true;
    default:
        return false;
    }
}

bool
reads_rs2(const Insn& d) {
    return d.op == Op::kBranch || d.op == Op::kStore || d.op == Op::kAluReg;
}

bool
writes_rd(const Insn& d) {
    switch (d.op) {
    case Op::kLui:
    case Op::kAuipc:
    case Op::kJal:
    case Op::kJalr:
    case Op::kLoad:
    case Op::kAluImm:
    case Op::kAluReg:
    case Op::kCsr:
        return d.rd != rv::zero;
    default:
        return false;
    }
}

/// True if control cannot continue to pc+4 after this instruction.
bool
is_terminator(const Insn& d) {
    switch (d.op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMret:
    case Op::kIllegal:
        return true;
    default:
        return false;
    }
}

// --- abstract domain --------------------------------------------------------

/// Interval bound large enough to hold any sum/shift of 32-bit values the
/// transfer functions produce without overflowing int64.
constexpr int64_t kClamp = int64_t(1) << 40;
constexpr int64_t kWordMax = (int64_t(1) << 32) - 1;
constexpr int64_t kI32Min = -(int64_t(1) << 31);
constexpr int64_t kI32Max = (int64_t(1) << 31) - 1;

int64_t
mag64(int64_t v) {
    return v < 0 ? -v : v;
}

/// Abstract register: a signed interval plus a must-initialized bit.
struct AbsVal {
    bool init = false;
    int64_t lo = -kClamp;
    int64_t hi = kClamp;

    static AbsVal top(bool initialized) { return {initialized, -kClamp, kClamp}; }
    static AbsVal constant(int64_t v) { return {true, v, v}; }
    static AbsVal range(int64_t lo, int64_t hi) {
        return {true, std::max(lo, -kClamp), std::min(hi, kClamp)};
    }

    bool is_const() const { return lo == hi; }
    bool is_top() const { return lo <= -kClamp && hi >= kClamp; }
    /// The interval maps 1:1 onto unsigned 32-bit values (usable as an
    /// address range without worrying about wraparound).
    bool is_word_range() const { return lo >= 0 && hi <= kWordMax; }
};

struct RegState {
    std::array<AbsVal, 32> r{};
    bool bottom = true;  ///< no path reaches this point yet
};

RegState
make_root_state(bool regs_initialized) {
    RegState s;
    s.bottom = false;
    for (auto& v : s.r) v = AbsVal::top(regs_initialized);
    s.r[0] = AbsVal::constant(0);
    return s;
}

/// Widening thresholds: 0, ±1, ± powers of two through 2^32, the memory-map
/// region boundaries, and the clamp. Widening a bound to the next threshold
/// (instead of straight to top) keeps loop counters, occupancy counts and
/// table indices on a finite ladder — the loop-bound inference and the WCET
/// pass below depend on it. The ladder is finite, so fixpoints still
/// terminate (each widening step strictly climbs the ladder).
const std::vector<int64_t>&
widen_thresholds() {
    static const std::vector<int64_t> kThresholds = [] {
        std::vector<int64_t> t{0, -kClamp, kClamp};
        for (int s = 0; s <= 32; ++s) {
            t.push_back(int64_t(1) << s);
            t.push_back((int64_t(1) << s) - 1);
            t.push_back(-(int64_t(1) << s));
        }
        for (uint32_t edge : {rpu::kImemBase + rpu::kImemSize, rpu::kDmemBase,
                              rpu::kDmemBase + rpu::kDmemSize, rpu::kPmemBase,
                              rpu::kPmemBase + rpu::kPmemSize, rpu::kAmemBase,
                              rpu::kAmemBase + rpu::kAmemSize, rpu::kIoBase,
                              rpu::kIoExtBase, rpu::kBcastBase,
                              rpu::kBcastBase + rpu::kBcastSize}) {
            t.push_back(int64_t(edge));
            t.push_back(int64_t(edge) - 1);
        }
        std::sort(t.begin(), t.end());
        t.erase(std::unique(t.begin(), t.end()), t.end());
        return t;
    }();
    return kThresholds;
}

/// Largest threshold <= v (for widening a sinking lower bound).
int64_t
widen_down(int64_t v) {
    const auto& t = widen_thresholds();
    auto it = std::upper_bound(t.begin(), t.end(), v);
    return it == t.begin() ? -kClamp : *(it - 1);
}

/// Smallest threshold >= v (for widening a rising upper bound).
int64_t
widen_up(int64_t v) {
    const auto& t = widen_thresholds();
    auto it = std::lower_bound(t.begin(), t.end(), v);
    return it == t.end() ? kClamp : *it;
}

/// Join `src` into `dst`. When `widen`, a bound that would grow jumps to
/// the next widening threshold so loop counters converge without going
/// straight to top. Returns true on change.
bool
join_into(RegState& dst, const RegState& src, bool widen) {
    if (src.bottom) return false;
    if (dst.bottom) {
        dst = src;
        return true;
    }
    bool changed = false;
    for (int i = 0; i < 32; ++i) {
        AbsVal& d = dst.r[i];
        const AbsVal& s = src.r[i];
        bool init = d.init && s.init;
        int64_t lo = std::min(d.lo, s.lo);
        int64_t hi = std::max(d.hi, s.hi);
        if (widen) {
            if (lo < d.lo) lo = widen_down(lo);
            if (hi > d.hi) hi = widen_up(hi);
        }
        if (init != d.init || lo != d.lo || hi != d.hi) {
            d = {init, lo, hi};
            changed = true;
        }
    }
    return changed;
}

int64_t
clamp64(int64_t v) {
    return std::max(-kClamp, std::min(kClamp, v));
}

AbsVal
abs_add(const AbsVal& a, int64_t blo, int64_t bhi, bool binit) {
    return {a.init && binit, clamp64(a.lo + blo), clamp64(a.hi + bhi)};
}

/// Smallest (2^k - 1) covering `v` — the sound upper bound for or/xor of
/// non-negative operands.
int64_t
pow2_mask(int64_t v) {
    int64_t m = 1;
    while (m - 1 < v) m <<= 1;
    return m - 1;
}

/// Transfer function for one instruction; interval semantics of the ops
/// firmware uses for address formation are exact, the rest go to top.
AbsVal
eval_alu(const Insn& d, const AbsVal& a, const AbsVal& b, uint32_t pc) {
    const bool imm_form = d.op == Op::kAluImm;
    const bool init = a.init && (imm_form || b.init);
    auto top = [&] { return AbsVal::top(init); };
    switch (d.op) {
    case Op::kLui:
        return AbsVal::constant(int32_t(d.imm));
    case Op::kAuipc:
        return AbsVal::constant(int64_t(uint32_t(pc + uint32_t(d.imm))));
    case Op::kJal:
    case Op::kJalr:
        return AbsVal::constant(pc + 4);
    case Op::kCsr:
        return AbsVal::top(true);
    default:
        break;
    }
    const int64_t blo = imm_form ? d.imm : b.lo;
    const int64_t bhi = imm_form ? d.imm : b.hi;
    switch (d.funct3) {
    case 0:  // add/addi/sub
        if (d.op == Op::kAluReg && d.funct7 == 0x20) {
            return {init, clamp64(a.lo - bhi), clamp64(a.hi - blo)};
        }
        if (d.op == Op::kAluReg && d.funct7 == 0x01) return top();  // mul
        return abs_add(a, blo, bhi, init);
    case 1: {  // sll/slli (mulh as reg form funct7=1)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) return top();
        // Bounded — not necessarily constant — shift amounts: left shift is
        // monotone for a non-negative value, so any s in [slo, shi] keeps
        // the result within [a.lo << slo, a.hi << shi].
        const int64_t slo = imm_form ? (d.imm & 0x1f) : blo;
        const int64_t shi = imm_form ? (d.imm & 0x1f) : bhi;
        if (slo >= 0 && shi <= 31 && a.lo >= 0 && a.hi <= (kWordMax >> shi)) {
            return {init, a.lo << slo, a.hi << shi};
        }
        return top();
    }
    case 2:  // slt family (mulhsu)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) return top();
        return {init, 0, 1};
    case 3:  // sltu family (mulhu)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) return top();
        return {init, 0, 1};
    case 4:  // xor/xori (div)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) {
            // div. RISC-V M: x/0 = -1 and INT_MIN/-1 = INT_MIN, so both
            // special cases stay within [-max|a|, max|a|] for |b| >= 0.
            // An unknown dividend is still a 32-bit word: [i32min, i32max].
            if (b.lo < kI32Min || b.hi > kI32Max) return top();
            const bool aw = a.lo >= kI32Min && a.hi <= kI32Max;
            const int64_t alo = aw ? a.lo : kI32Min;
            const int64_t ahi = aw ? a.hi : kI32Max;
            if (blo == 0 && bhi == 0) return {init, -1, -1};
            if (blo >= 1 && alo >= 0) return {init, alo / bhi, ahi / blo};
            const int64_t m = std::max({mag64(alo), mag64(ahi), int64_t(1)});
            return {init, -m, m};
        }
        if (a.is_const() && blo == bhi) {
            return {init, int64_t(uint32_t(a.lo) ^ uint32_t(blo)),
                    int64_t(uint32_t(a.lo) ^ uint32_t(blo))};
        }
        if (a.lo >= 0 && blo >= 0 && a.hi <= kWordMax && bhi <= kWordMax) {
            return {init, 0, pow2_mask(std::max(a.hi, bhi))};
        }
        return top();
    case 5:  // srl/sra/srli/srai (divu)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) {
            // divu. RISC-V M: x/0 = 2^32-1; otherwise the quotient shrinks
            // monotonically with the divisor, so the corners are exact.
            // An unknown dividend is still a 32-bit word: [0, 2^32-1].
            if (b.lo < 0 || b.hi > kWordMax) return top();
            const bool aw = a.lo >= 0 && a.hi <= kWordMax;
            const int64_t alo = aw ? a.lo : 0;
            const int64_t ahi = aw ? a.hi : kWordMax;
            if (bhi == 0) return {init, kWordMax, kWordMax};
            return {init, alo / bhi, blo >= 1 ? ahi / blo : kWordMax};
        }
        {
            // Bounded — not necessarily constant — shift amounts: right
            // shift is monotone, so the corners are [a.lo >> shi, a.hi >> slo].
            const bool arith = d.funct7 == 0x20 || (imm_form && (d.imm & 0x400));
            const int64_t slo = imm_form ? (d.imm & 0x1f) : blo;
            const int64_t shi = imm_form ? (d.imm & 0x1f) : bhi;
            if (slo >= 0 && shi <= 31) {
                if (a.is_word_range() && (!arith || a.hi < (int64_t(1) << 31))) {
                    return {init, a.lo >> shi, a.hi >> slo};
                }
                // Unknown operand: the result is still a 32-bit word (srl)
                // or a sign-extended one (sra) narrowed by the shift.
                if (!arith) return {init, 0, kWordMax >> slo};
                return {init, kI32Min >> slo, kI32Max >> slo};
            }
        }
        return top();
    case 6:  // or/ori (rem)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) {
            // rem. RISC-V M: x%0 = x and INT_MIN%-1 = 0; otherwise
            // |r| < |b|, |r| <= |a|, and r takes the dividend's sign.
            // An unknown dividend is still a 32-bit word: [i32min, i32max].
            if (b.lo < kI32Min || b.hi > kI32Max) return top();
            const bool aw = a.lo >= kI32Min && a.hi <= kI32Max;
            const int64_t alo = aw ? a.lo : kI32Min;
            const int64_t ahi = aw ? a.hi : kI32Max;
            if (blo >= 1 && alo >= 0) return {init, 0, std::min(bhi - 1, ahi)};
            const int64_t m = std::max(mag64(alo), mag64(ahi));
            return {init, alo >= 0 ? 0 : -m, ahi <= 0 ? 0 : m};
        }
        if (a.is_const() && blo == bhi) {
            return AbsVal::constant(int64_t(uint32_t(a.lo) | uint32_t(blo)));
        }
        if (a.lo >= 0 && blo >= 0 && a.hi <= kWordMax && bhi <= kWordMax) {
            return {init, std::max(a.lo, blo), pow2_mask(std::max(a.hi, bhi))};
        }
        return top();
    case 7:  // and/andi (remu)
        if (d.op == Op::kAluReg && d.funct7 == 0x01) {
            // remu. RISC-V M: x%0 = x; otherwise r < b and r <= a.
            // An unknown dividend is still a 32-bit word: [0, 2^32-1].
            if (b.lo < 0 || b.hi > kWordMax) return top();
            const bool aw = a.lo >= 0 && a.hi <= kWordMax;
            const int64_t alo = aw ? a.lo : 0;
            const int64_t ahi = aw ? a.hi : kWordMax;
            if (bhi == 0) return {init, alo, ahi};
            if (blo >= 1) return {init, 0, std::min(bhi - 1, ahi)};
            return {init, 0, std::max(ahi, bhi - 1)};
        }
        if (a.is_const() && blo == bhi) {
            return AbsVal::constant(int64_t(uint32_t(a.lo) & uint32_t(blo)));
        }
        if (imm_form && d.imm >= 0) {
            return {init, 0, a.lo >= 0 ? std::min<int64_t>(a.hi, d.imm) : d.imm};
        }
        // Mask with high bits set (e.g. andi rd, rs, -16) clears low bits:
        // x & m = x - (x & ~m) >= x - ~m, so a non-negative operand keeps
        // its lower bound up to the cleared-bit budget (alignment masks
        // preserve address ranges almost exactly).
        if (imm_form && d.imm < 0 && a.lo >= 0 && a.hi <= kWordMax) {
            const int64_t clear = int64_t(uint32_t(~uint32_t(d.imm)));
            return {init, std::max<int64_t>(0, a.lo - clear), a.hi};
        }
        if (a.lo >= 0 && a.hi <= kWordMax && (imm_form || b.init)) {
            if (imm_form || blo >= 0) return {init, 0, a.hi};
        }
        return top();
    default:
        return top();
    }
}

// --- memory map -------------------------------------------------------------

struct Region {
    uint32_t base;
    uint32_t size;
    const char* name;
};

constexpr Region kLoadRegions[] = {
    {rpu::kImemBase, rpu::kImemSize, "IMEM"},
    {rpu::kDmemBase, rpu::kDmemSize, "DMEM"},
    {rpu::kPmemBase, rpu::kPmemSize, "PMEM"},
    {rpu::kAmemBase, rpu::kAmemSize, "AMEM"},
    {rpu::kIoBase, rpu::kIoSize, "IO"},
    {rpu::kIoExtBase, rpu::kIoExtSize, "IO_EXT"},
    {rpu::kBcastBase, rpu::kBcastSize, "BCAST"},
};

/// Stores may not target instruction memory (the bus faults).
constexpr Region kStoreRegions[] = {
    {rpu::kDmemBase, rpu::kDmemSize, "DMEM"},
    {rpu::kPmemBase, rpu::kPmemSize, "PMEM"},
    {rpu::kAmemBase, rpu::kAmemSize, "AMEM"},
    {rpu::kIoBase, rpu::kIoSize, "IO"},
    {rpu::kIoExtBase, rpu::kIoExtSize, "IO_EXT"},
    {rpu::kBcastBase, rpu::kBcastSize, "BCAST"},
};

/// Interconnect registers with read side effects or values (io_read).
constexpr uint32_t kReadableIo[] = {
    rpu::kRegRecvLow,   rpu::kRegRecvHigh,  rpu::kRegRxReady,   rpu::kRegDebugLow,
    rpu::kRegDebugHigh, rpu::kRegCycle,     rpu::kRegCoreId,    rpu::kRegIrqStatus,
    rpu::kRegBcastAddr, rpu::kRegBcastData, rpu::kRegBcastReady, rpu::kRegLbSlotResp,
};

/// Interconnect registers accepted by io_write (plus the TX doorbell).
constexpr uint32_t kWritableIo[] = {
    rpu::kRegRecvRelease, rpu::kRegSendLow,  rpu::kRegSendHigh, rpu::kRegSendDest,
    rpu::kRegTimerCmp,    rpu::kRegDebugLow, rpu::kRegDebugHigh, rpu::kRegIrqMask,
    rpu::kRegIrqAck,      rpu::kRegSlotCount, rpu::kRegSlotBase, rpu::kRegSlotSize,
    rpu::kRegHdrBase,     rpu::kRegHdrSize,  rpu::kRegSlotCommit, rpu::kRegBcastPop,
    rpu::kRegLbSlotReq,
};

constexpr uint32_t kAllowedCsrs[] = {
    rv::kCsrMstatus, rv::kCsrMtvec,    rv::kCsrMepc,  rv::kCsrMcause, rv::kCsrCycle,
    rv::kCsrTime,    rv::kCsrInstret,  rv::kCsrCycleH, rv::kCsrTimeH, rv::kCsrInstretH,
};

template <typename C, typename V>
bool
contains(const C& c, V v) {
    return std::find(std::begin(c), std::end(c), v) != std::end(c);
}

bool
intersects_any_region(const Region* regions, size_t n, int64_t lo, int64_t hi) {
    for (size_t i = 0; i < n; ++i) {
        int64_t rlo = regions[i].base;
        int64_t rhi = rlo + regions[i].size - 1;
        if (lo <= rhi && hi >= rlo) return true;
    }
    return false;
}

bool
region_contains(const Region& r, int64_t lo, int64_t hi) {
    return lo >= r.base && hi < int64_t(r.base) + r.size;
}

constexpr const char* kRegNames[32] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

std::string
hex(uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", v);
    return buf;
}

// --- verifier ---------------------------------------------------------------

class Verifier {
 public:
    Verifier(const std::vector<uint32_t>& image, const Options& opts)
        : image_(image), opts_(opts), insns_(image.size()), reachable_(image.size(), 0) {}

    Report run();

 private:
    uint32_t end_addr() const { return uint32_t(image_.size()) * 4; }

    void diag(Check c, Severity sev, uint32_t pc, std::string msg) {
        // Deduplicate: the final pass walks blocks whose states were
        // already explored during the fixpoint.
        if (!seen_.insert({pc, int(c), msg}).second) return;
        report_.diags.push_back({c, sev, pc, std::move(msg)});
    }

    void discover_from_roots();
    void build_blocks();
    std::vector<uint32_t> successors(uint32_t pc, const Insn& d, bool emit_diags);
    void fixpoint();
    RegState transfer(size_t block_idx, RegState state, bool emit);
    RegState refine_edge(size_t b, RegState out, uint32_t succ) const;
    void check_instruction(uint32_t pc, const Insn& d, const RegState& state);
    void check_memory(uint32_t pc, const Insn& d, const RegState& state);
    void scan_unreachable();
    void find_busy_loops();
    void check_slot_window();

    // --- certification -------------------------------------------------------
    static constexpr uint64_t kUnboundedTrips = UINT64_MAX;
    uint32_t insn_cycles(const Insn& d, const RegState& state) const;
    void note_store(const Insn& d, const RegState& state);
    void certify();
    uint64_t infer_loop_trips(const std::set<size_t>& scc, size_t header);
    /// Worst-case cost of the subgraph induced by `nodes`, entered at
    /// `entries`, ignoring `removed` edges (back edges of enclosing loops).
    struct PathCost {
        bool bounded = true;
        uint64_t instrs = 0;
        uint64_t cycles = 0;
        std::vector<size_t> path;  ///< blocks on the worst-case path
    };
    PathCost wcet_subgraph(const std::set<size_t>& nodes,
                           const std::set<size_t>& entries,
                           std::set<std::pair<size_t, size_t>> removed, int depth);

    const std::vector<uint32_t>& image_;
    Options opts_;
    std::vector<Insn> insns_;
    std::vector<uint8_t> reachable_;
    std::set<uint32_t> leaders_;
    std::set<uint32_t> roots_;
    std::set<uint32_t> handler_roots_;
    Report report_;

    // Blocks + per-block analysis state.
    std::vector<BasicBlock> blocks_;
    std::map<uint32_t, size_t> block_at_;  ///< first-insn addr -> block index
    std::vector<RegState> in_states_;
    std::vector<int> join_counts_;
    std::vector<uint8_t> observable_;  ///< block may touch MMIO/broadcast
    std::vector<std::vector<size_t>> adj_;  ///< successor block indices

    // Facts accumulated by the final (emit) pass for the certificate.
    std::vector<uint32_t> cost_instrs_;  ///< per-block retired instructions
    std::vector<uint32_t> cost_cycles_;  ///< per-block worst-case cycles
    bool sp_written_ = false, sp_top_ = false;
    int64_t sp_lo_ = 0, sp_hi_ = 0;
    struct RegionAcc {
        bool any = false;
        int64_t lo = 0, hi = 0;
    };
    std::array<RegionAcc, std::size(kStoreRegions)> region_writes_{};
    uint32_t unproven_stores_ = 0;
    bool store_may_hit_text_ = false;
    bool has_indirect_jump_ = false;
    std::map<uint32_t, LoopBound> loops_found_;  ///< header pc -> bound

    std::set<std::tuple<uint32_t, int, std::string>> seen_;
    static constexpr int kWidenAfter = 24;
};

void
Verifier::discover_from_roots() {
    std::fill(reachable_.begin(), reachable_.end(), 0);
    leaders_.clear();
    std::deque<uint32_t> work(roots_.begin(), roots_.end());
    for (uint32_t r : roots_) leaders_.insert(r);
    while (!work.empty()) {
        uint32_t pc = work.front();
        work.pop_front();
        if (pc >= end_addr() || (pc & 3)) continue;  // diagnosed at the edge
        size_t idx = pc / 4;
        if (reachable_[idx]) continue;
        reachable_[idx] = 1;
        insns_[idx] = decode(image_[idx]);
        for (uint32_t s : successors(pc, insns_[idx], /*emit_diags=*/false)) {
            work.push_back(s);
        }
    }
}

/// Successor pcs of the instruction at `pc`; with `emit_diags`, report bad
/// targets and fall-off-the-end instead of following them.
std::vector<uint32_t>
Verifier::successors(uint32_t pc, const Insn& d, bool emit_diags) {
    std::vector<uint32_t> out;
    auto add_target = [&](uint32_t target, const char* what) {
        if (target & 3) {
            if (emit_diags) {
                diag(Check::kCfg, Severity::kError, pc,
                     std::string(what) + " target " + hex(target) +
                         " is not on an instruction boundary");
            }
            return;
        }
        if (target >= end_addr()) {
            if (emit_diags) {
                const char* where =
                    target >= rpu::kImemSize ? "outside IMEM" : "past the end of the image";
                diag(Check::kCfg, Severity::kError, pc,
                     std::string(what) + " target " + hex(target) + " lands " + where +
                         " (image ends at " + hex(end_addr()) + ")");
            }
            return;
        }
        out.push_back(target);
    };
    auto add_fallthrough = [&] {
        if (pc + 4 >= end_addr() && pc + 4 == end_addr()) {
            if (emit_diags) {
                diag(Check::kCfg, Severity::kError, pc,
                     "control falls off the end of the image after " + hex(pc));
            }
            return;
        }
        out.push_back(pc + 4);
    };
    switch (d.op) {
    case Op::kJal:
        add_target(pc + uint32_t(d.imm), "jal");
        break;
    case Op::kBranch:
        add_target(pc + uint32_t(d.imm), "branch");
        add_fallthrough();
        break;
    case Op::kJalr:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMret:
    case Op::kIllegal:
        break;  // terminators with no static successor
    default:
        add_fallthrough();
        break;
    }
    return out;
}

void
Verifier::build_blocks() {
    blocks_.clear();
    block_at_.clear();
    // Every jump/branch target and every fall-through after a branch
    // starts a block.
    for (size_t i = 0; i < image_.size(); ++i) {
        if (!reachable_[i]) continue;
        uint32_t pc = uint32_t(i) * 4;
        const Insn& d = insns_[i];
        if (d.op == Op::kBranch || d.op == Op::kJal || is_terminator(d)) {
            for (uint32_t s : successors(pc, d, false)) leaders_.insert(s);
        }
    }
    BasicBlock cur;
    bool open = false;
    for (size_t i = 0; i < image_.size(); ++i) {
        if (!reachable_[i]) {
            open = false;
            continue;
        }
        uint32_t pc = uint32_t(i) * 4;
        if (!open || leaders_.count(pc)) {
            if (open) {
                cur.succs = {pc};
                blocks_.push_back(cur);
            }
            cur = BasicBlock{pc, pc, {}};
            open = true;
        }
        cur.last = pc;
        const Insn& d = insns_[i];
        if (d.op == Op::kBranch || is_terminator(d)) {
            cur.succs = successors(pc, d, false);
            blocks_.push_back(cur);
            open = false;
        }
    }
    if (open) {
        cur.succs = successors(cur.last, insns_[cur.last / 4], false);
        blocks_.push_back(cur);
    }
    for (size_t b = 0; b < blocks_.size(); ++b) block_at_[blocks_[b].first] = b;
    in_states_.assign(blocks_.size(), RegState{});
    join_counts_.assign(blocks_.size(), 0);
    observable_.assign(blocks_.size(), 0);
    cost_instrs_.assign(blocks_.size(), 0);
    cost_cycles_.assign(blocks_.size(), 0);
    adj_.assign(blocks_.size(), {});
    for (size_t b = 0; b < blocks_.size(); ++b) {
        for (uint32_t s : blocks_[b].succs) {
            auto it = block_at_.find(s);
            if (it != block_at_.end()) adj_[b].push_back(it->second);
        }
    }
}

/// Worst-case cycles one instruction can take on rv::Core (CostModel plus
/// the bus latencies in mem/memory.h). Loads/stores are classified by the
/// region their address interval provably stays in; an unknown address gets
/// the worst latency of any region. Bus `retry` (backpressure) cycles are
/// excluded by construction: the WCET bounds *executed* work per handler
/// activation — waiting on a full TX queue is stall time, attributed by the
/// observability layer, not compute.
uint32_t
Verifier::insn_cycles(const Insn& d, const RegState& state) const {
    switch (d.op) {
    case Op::kBranch:
        return 2;  // CostModel.branch_taken (worst of taken/not-taken)
    case Op::kJal:
    case Op::kJalr:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMret:
        return 2;  // CostModel.jump / trap redirect
    case Op::kCsr:
        return 1;
    case Op::kAluReg:
        if (d.funct7 == 0x01) return d.funct3 < 4 ? 5 : 35;  // mul / div
        return 1;
    case Op::kLoad:
    case Op::kStore: {
        const bool is_store = d.op == Op::kStore;
        uint32_t worst = is_store
                             ? std::max({mem::kBramStoreCycles, mem::kUramStoreCycles,
                                         mem::kMmioStoreCycles})
                             : std::max({mem::kBramLoadCycles, mem::kUramLoadCycles,
                                         mem::kMmioLoadCycles});
        const AbsVal& base = state.r[d.rs1];
        int64_t lo = 0;
        int64_t hi = -1;
        const uint32_t size = 1U << (d.funct3 & 3);
        if (base.init && base.is_const()) {
            const uint32_t addr = uint32_t(int64_t(base.lo) + d.imm);
            lo = addr;
            hi = int64_t(addr) + size - 1;
        } else if (base.init && base.is_word_range()) {
            lo = base.lo + d.imm;
            hi = base.hi + d.imm + size - 1;
        } else {
            return worst;
        }
        auto in = [&](uint32_t rbase, uint32_t rsize) {
            return region_contains({rbase, rsize, ""}, lo, hi);
        };
        if (in(rpu::kDmemBase, rpu::kDmemSize) || in(rpu::kImemBase, rpu::kImemSize)) {
            return is_store ? mem::kBramStoreCycles : mem::kBramLoadCycles;
        }
        if (in(rpu::kPmemBase, rpu::kPmemSize) || in(rpu::kAmemBase, rpu::kAmemSize)) {
            return is_store ? mem::kUramStoreCycles : mem::kUramLoadCycles;
        }
        if (in(rpu::kIoBase, rpu::kIoSize) || in(rpu::kIoExtBase, rpu::kIoExtSize) ||
            in(rpu::kBcastBase, rpu::kBcastSize)) {
            return is_store ? mem::kMmioStoreCycles : mem::kMmioLoadCycles;
        }
        return worst;
    }
    default:
        return 1;  // CostModel.alu (lui/auipc/alu/fence)
    }
}

/// Record one reachable store's provable address range for the footprint
/// summary and the text-segment write-separation proof.
void
Verifier::note_store(const Insn& d, const RegState& state) {
    const AbsVal& base = state.r[d.rs1];
    const uint32_t size = 1U << (d.funct3 & 3);
    int64_t lo = 0;
    int64_t hi = -1;
    if (base.init && base.is_const()) {
        const uint32_t addr = uint32_t(int64_t(base.lo) + d.imm);
        lo = addr;
        hi = int64_t(addr) + size - 1;
    } else if (base.init && base.is_word_range()) {
        lo = base.lo + d.imm;
        hi = base.hi + d.imm + size - 1;
    }
    if (hi < lo || lo < 0 || hi > kWordMax) {
        ++unproven_stores_;
        return;
    }
    if (lo < int64_t(rpu::kImemBase) + rpu::kImemSize &&
        hi >= int64_t(rpu::kImemBase)) {
        store_may_hit_text_ = true;
    }
    for (size_t i = 0; i < std::size(kStoreRegions); ++i) {
        const Region& r = kStoreRegions[i];
        int64_t clo = std::max<int64_t>(lo, r.base);
        int64_t chi = std::min<int64_t>(hi, int64_t(r.base) + r.size - 1);
        if (clo > chi) continue;
        RegionAcc& acc = region_writes_[i];
        if (!acc.any) {
            acc = {true, clo, chi};
        } else {
            acc.lo = std::min(acc.lo, clo);
            acc.hi = std::max(acc.hi, chi);
        }
    }
}

RegState
Verifier::transfer(size_t block_idx, RegState state, bool emit) {
    const BasicBlock& bb = blocks_[block_idx];
    for (uint32_t pc = bb.first; pc <= bb.last; pc += 4) {
        const Insn& d = insns_[pc / 4];
        if (emit) {
            check_instruction(pc, d, state);
            // Certificate facts: per-block worst-case cost, the store
            // footprint, and indirect-jump presence (which defeats the
            // longest-path WCET: the CFG has no edge for the target).
            cost_instrs_[block_idx] += 1;
            cost_cycles_[block_idx] += insn_cycles(d, state);
            if (d.op == Op::kStore) note_store(d, state);
            if (d.op == Op::kJalr) has_indirect_jump_ = true;
        }

        // Track whether this block can touch MMIO or the broadcast region
        // (an observable side effect for the busy-loop check).
        if (d.op == Op::kLoad || d.op == Op::kStore) {
            const AbsVal& base = state.r[d.rs1];
            constexpr Region kObservable[] = {
                {rpu::kIoBase, rpu::kIoSize, "IO"},
                {rpu::kIoExtBase, rpu::kIoExtSize, "IO_EXT"},
                {rpu::kBcastBase, rpu::kBcastSize, "BCAST"},
            };
            if (!base.is_word_range() ||
                intersects_any_region(kObservable, 3, base.lo + d.imm,
                                      base.hi + d.imm + (1 << (d.funct3 & 3)) - 1)) {
                observable_[block_idx] = 1;
            }
        }

        // Discover interrupt vectors / interrupt enables.
        if (d.op == Op::kCsr && d.rs1 != rv::zero && d.funct3 <= 2) {
            if (d.csr == rv::kCsrMtvec && state.r[d.rs1].is_const()) {
                handler_roots_.insert(uint32_t(state.r[d.rs1].lo) & ~3u);
            }
            if (d.csr == rv::kCsrMstatus) report_.interrupts_possible = true;
        }

        AbsVal result = AbsVal::top(true);
        switch (d.op) {
        case Op::kLui:
        case Op::kAuipc:
        case Op::kJal:
        case Op::kJalr:
        case Op::kCsr:
            result = eval_alu(d, state.r[d.rs1], state.r[d.rs2], pc);
            break;
        case Op::kAluImm:
        case Op::kAluReg:
            result = eval_alu(d, state.r[d.rs1], state.r[d.rs2], pc);
            break;
        case Op::kLoad:
            // Memory contents are unknown, but the load width still bounds
            // the value: sub-word loads are zero/sign-extended by the core.
            switch (d.funct3) {
            case 0: result = AbsVal::range(-128, 127); break;       // lb
            case 1: result = AbsVal::range(-32768, 32767); break;   // lh
            case 4: result = AbsVal::range(0, 255); break;          // lbu
            case 5: result = AbsVal::range(0, 65535); break;        // lhu
            default: result = AbsVal::top(true); break;             // lw
            }
            break;
        default:
            break;
        }
        if (writes_rd(d)) state.r[d.rd] = result;
        if (emit && writes_rd(d) && d.rd == rv::sp) {
            // Stack-depth bound: the span of every value ever written to sp.
            if (!sp_written_) {
                sp_lo_ = kClamp;
                sp_hi_ = -kClamp;
            }
            sp_written_ = true;
            if (!result.init || result.lo <= -kClamp || result.hi >= kClamp) {
                sp_top_ = true;
            } else {
                sp_lo_ = std::min(sp_lo_, result.lo);
                sp_hi_ = std::max(sp_hi_, result.hi);
            }
        }
        state.r[0] = AbsVal::constant(0);
    }
    return state;
}

// Interval intersection / endpoint trimming used by the edge refinement.
// A refinement that would empty an interval is dropped: the edge is
// infeasible, but keeping the unrefined superset is sound and keeps every
// BFS-reachable block analyzed (no silent dead-code suppression).
namespace refine {

void
intersect(AbsVal& x, const AbsVal& y) {
    int64_t lo = std::max(x.lo, y.lo);
    int64_t hi = std::min(x.hi, y.hi);
    if (lo <= hi) {
        x.lo = lo;
        x.hi = hi;
    }
}

void
trim_ne(AbsVal& x, const AbsVal& c) {
    if (!c.is_const()) return;
    if (x.lo == c.lo && x.lo < x.hi) ++x.lo;
    if (x.hi == c.lo && x.hi > x.lo) --x.hi;
}

/// Refine with the fact a < b (`truth`) or a >= b (`!truth`).
void
less(AbsVal& a, AbsVal& b, bool truth) {
    if (truth) {
        int64_t ahi = std::min(a.hi, b.hi - 1);
        int64_t blo = std::max(b.lo, a.lo + 1);
        if (ahi >= a.lo) a.hi = ahi;
        if (blo <= b.hi) b.lo = blo;
    } else {
        int64_t alo = std::max(a.lo, b.lo);
        int64_t bhi = std::min(b.hi, a.hi);
        if (alo <= a.hi) a.lo = alo;
        if (bhi >= b.lo) b.hi = bhi;
    }
}

}  // namespace refine

/// Narrow the out-state of block `b` along the edge to `succ` using the
/// block's terminating branch. Handles the direct blt/bge/bltu/bgeu/beq/bne
/// comparisons and the slt-family guard idiom (`slti t, s, K` followed by
/// `beqz/bnez t`) so counted loops and capacity guards carry their bounds
/// into the loop body. This is what keeps, e.g., a reorder-buffer occupancy
/// count below its `slti`-checked cap in the abstract state.
RegState
Verifier::refine_edge(size_t b, RegState out, uint32_t succ) const {
    const BasicBlock& bb = blocks_[b];
    const Insn& t = insns_[bb.last / 4];
    if (t.op != Op::kBranch || out.bottom) return out;
    const uint32_t taken = bb.last + uint32_t(t.imm);
    const uint32_t fall = bb.last + 4;
    if (taken == fall || (succ != taken && succ != fall)) return out;
    const bool is_taken = succ == taken;

    Reg lhs = t.rs1;
    Reg rhs = t.rs2;
    uint32_t f3 = t.funct3;
    bool truth = is_taken;
    bool rhs_is_imm = false;
    int64_t imm_rhs = 0;

    if ((f3 == 0 || f3 == 1) && t.rs2 == rv::zero && t.rs1 != rv::zero) {
        // beqz/bnez of a value produced by slt/slti/sltu/sltiu earlier in
        // this block, with neither the result nor the compared operands
        // clobbered in between.
        const Insn* def = nullptr;
        for (uint32_t pc = bb.first; pc < bb.last; pc += 4) {
            const Insn& d = insns_[pc / 4];
            if (!writes_rd(d)) continue;
            if (d.rd == t.rs1) {
                def = &d;
            } else if (def != nullptr &&
                       (d.rd == def->rs1 ||
                        (def->op == Op::kAluReg && d.rd == def->rs2))) {
                def = nullptr;
            }
        }
        const bool is_slt =
            def != nullptr && (def->op == Op::kAluImm || def->op == Op::kAluReg) &&
            (def->funct3 == 2 || def->funct3 == 3) &&
            (def->op == Op::kAluImm || def->funct7 == 0) && def->rs1 != def->rd &&
            (def->op == Op::kAluImm || def->rs2 != def->rd);
        if (is_slt) {
            truth = (f3 == 1) == is_taken;  // bnez(slt) <=> comparison holds
            lhs = def->rs1;
            f3 = def->funct3 == 2 ? 4U : 6U;  // slt -> blt, sltu -> bltu
            if (def->op == Op::kAluImm) {
                rhs_is_imm = true;
                imm_rhs = def->imm;
            } else {
                rhs = def->rs2;
            }
        }
    }

    AbsVal a = out.r[lhs];
    AbsVal bv = rhs_is_imm ? AbsVal::constant(imm_rhs) : out.r[rhs];
    switch (f3) {
    case 0:  // beq: taken <=> equal
        if (truth) {
            AbsVal a0 = a;
            refine::intersect(a, bv);
            refine::intersect(bv, a0);
        } else {
            refine::trim_ne(a, bv);
            refine::trim_ne(bv, a);
        }
        break;
    case 1:  // bne: taken <=> not equal
        if (truth) {
            refine::trim_ne(a, bv);
            refine::trim_ne(bv, a);
        } else {
            AbsVal a0 = a;
            refine::intersect(a, bv);
            refine::intersect(bv, a0);
        }
        break;
    case 4:  // blt
        refine::less(a, bv, truth);
        break;
    case 5:  // bge: taken <=> !(a < b)
        refine::less(a, bv, !truth);
        break;
    case 6:  // bltu: valid on the unsigned number line only
        if (a.is_word_range() && bv.is_word_range()) refine::less(a, bv, truth);
        break;
    case 7:  // bgeu
        if (a.is_word_range() && bv.is_word_range()) refine::less(a, bv, !truth);
        break;
    default:
        break;
    }
    if (lhs != rv::zero) out.r[lhs] = a;
    if (!rhs_is_imm && rhs != rv::zero) out.r[rhs] = bv;
    return out;
}

void
Verifier::fixpoint() {
    std::deque<size_t> work;
    for (uint32_t root : roots_) {
        auto it = block_at_.find(root);
        if (it == block_at_.end()) continue;
        bool handler = handler_roots_.count(root) && root != opts_.entry;
        join_into(in_states_[it->second], make_root_state(handler), false);
        work.push_back(it->second);
    }
    while (!work.empty()) {
        size_t b = work.front();
        work.pop_front();
        RegState out = transfer(b, in_states_[b], /*emit=*/false);
        for (uint32_t succ : blocks_[b].succs) {
            auto it = block_at_.find(succ);
            if (it == block_at_.end()) continue;
            size_t sb = it->second;
            bool widen = ++join_counts_[sb] > kWidenAfter;
            if (join_into(in_states_[sb], refine_edge(b, out, succ), widen)) {
                work.push_back(sb);
            }
        }
    }
}

void
Verifier::check_instruction(uint32_t pc, const Insn& d, const RegState& state) {
    if (d.op == Op::kIllegal) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "illegal instruction 0x%08x on a reachable path",
                      image_[pc / 4]);
        diag(Check::kDecode, Severity::kError, pc, buf);
        return;
    }
    auto check_read = [&](Reg r) {
        if (r != rv::zero && !state.r[r].init) {
            diag(Check::kUninit, Severity::kError, pc,
                 "register " + std::string(kRegNames[r]) +
                     " is read but never written on some path to " + hex(pc));
        }
    };
    if (reads_rs1(d)) check_read(d.rs1);
    if (reads_rs2(d)) check_read(d.rs2);
    if (d.op == Op::kCsr && !contains(kAllowedCsrs, d.csr)) {
        diag(Check::kCsr, Severity::kError, pc,
             "access to reserved CSR " + hex(d.csr) +
                 " (core implements mstatus/mtvec/mepc/mcause and the counters)");
    }
    if (d.op == Op::kJalr) {
        const AbsVal& base = state.r[d.rs1];
        if (base.is_const()) {
            uint32_t target = uint32_t(base.lo + d.imm) & ~1u;
            if ((target & 3) || target >= end_addr()) {
                diag(Check::kCfg, Severity::kError, pc,
                     "jalr target " + hex(target) + " is outside the image");
            }
        } else {
            diag(Check::kCfg, Severity::kWarning, pc,
                 "indirect jump with a statically unknown target is not verified");
        }
    }
    if (d.op == Op::kLoad || d.op == Op::kStore) check_memory(pc, d, state);
}

void
Verifier::check_memory(uint32_t pc, const Insn& d, const RegState& state) {
    const AbsVal& base = state.r[d.rs1];
    if (!base.init) return;  // already reported as an uninitialized read
    const uint32_t size = 1u << (d.funct3 & 3);
    const bool is_store = d.op == Op::kStore;
    const Region* regions = is_store ? kStoreRegions : kLoadRegions;
    const size_t nregions =
        is_store ? std::size(kStoreRegions) : std::size(kLoadRegions);
    const char* verb = is_store ? "store" : "load";

    if (base.is_const()) {
        // Exact address: check with 32-bit wraparound semantics.
        const uint32_t addr = uint32_t(int64_t(base.lo) + d.imm);
        const int64_t lo = addr, hi = int64_t(addr) + size - 1;
        if (!intersects_any_region(regions, nregions, lo, hi)) {
            diag(Check::kMemory, Severity::kError, pc,
                 std::string(verb) + " of " + std::to_string(size) + " bytes at " +
                     hex(addr) + " is outside every mapped region");
            return;
        }
        const Region io{rpu::kIoBase, rpu::kIoSize, "IO"};
        if (region_contains(io, lo, hi)) {
            const uint32_t offset = (addr - rpu::kIoBase) & ~3u;
            const bool known = is_store ? contains(kWritableIo, offset)
                                        : contains(kReadableIo, offset);
            if (!known) {
                diag(Check::kMmio, Severity::kError, pc,
                     std::string(verb) + " touches reserved interconnect register offset " +
                         hex(offset));
            }
        }
        return;
    }
    if (!base.is_word_range()) return;  // unknown: cannot prove a violation
    const int64_t lo = base.lo + d.imm;
    const int64_t hi = base.hi + d.imm + size - 1;
    if (lo >= 0 && hi <= kWordMax && !intersects_any_region(regions, nregions, lo, hi)) {
        diag(Check::kMemory, Severity::kError, pc,
             std::string(verb) + " range [" + hex(uint32_t(lo)) + ", " + hex(uint32_t(hi)) +
                 "] is provably outside every mapped region");
    }
}

void
Verifier::scan_unreachable() {
    size_t i = 0;
    while (i < image_.size()) {
        if (reachable_[i] || image_[i] == 0) {
            ++i;
            continue;
        }
        size_t start = i;
        while (i < image_.size() && !reachable_[i] && image_[i] != 0) ++i;
        diag(Check::kUnreachable, Severity::kWarning, uint32_t(start) * 4,
             "unreachable code: " + std::to_string(i - start) + " word(s) at " +
                 hex(uint32_t(start) * 4) + ".." + hex(uint32_t(i) * 4 - 4) +
                 " are never executed");
    }
}

/// Iterative Tarjan over an adjacency list (stack-safe on big images).
/// Returns the component count; `comp[v]` ids come out reverse-topological:
/// for every edge u -> v across components, comp[u] > comp[v].
int
tarjan_scc(const std::vector<std::vector<size_t>>& adj, std::vector<int>& comp) {
    const size_t n = adj.size();
    std::vector<int> index(n, -1), low(n, 0), on_stack(n, 0);
    comp.assign(n, -1);
    std::vector<size_t> stack;
    int next_index = 0, next_comp = 0;

    struct Frame {
        size_t v;
        size_t child = 0;
    };
    for (size_t start = 0; start < n; ++start) {
        if (index[start] != -1) continue;
        std::vector<Frame> frames{{start}};
        while (!frames.empty()) {
            Frame& f = frames.back();
            size_t v = f.v;
            if (f.child == 0) {
                index[v] = low[v] = next_index++;
                stack.push_back(v);
                on_stack[v] = 1;
            }
            bool descended = false;
            while (f.child < adj[v].size()) {
                size_t w = adj[v][f.child];
                ++f.child;
                if (index[w] == -1) {
                    frames.push_back({w});
                    descended = true;
                    break;
                }
                if (on_stack[w]) low[v] = std::min(low[v], index[w]);
            }
            if (descended) continue;
            if (low[v] == index[v]) {
                while (true) {
                    size_t w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    comp[w] = next_comp;
                    if (w == v) break;
                }
                ++next_comp;
            }
            frames.pop_back();
            if (!frames.empty()) {
                size_t parent = frames.back().v;
                low[parent] = std::min(low[parent], low[v]);
            }
        }
    }
    return next_comp;
}

/// Tarjan SCC over the block graph; flag cycles with no exit edge and no
/// observable effect (unless an interrupt could rescue them, or the bound
/// inference already proved the loop finite).
void
Verifier::find_busy_loops() {
    const size_t n = blocks_.size();
    std::vector<int> comp;
    const int next_comp = tarjan_scc(adj_, comp);

    for (int c = 0; c < next_comp; ++c) {
        bool cyclic = false, has_exit = false, observable = false;
        uint32_t first_pc = ~0u;
        size_t members = 0;
        for (size_t b = 0; b < n; ++b) {
            if (comp[b] != c) continue;
            ++members;
            first_pc = std::min(first_pc, blocks_[b].first);
            if (observable_[b]) observable = true;
            for (uint32_t s : blocks_[b].succs) {
                auto it = block_at_.find(s);
                if (it == block_at_.end()) continue;
                if (comp[it->second] == c) {
                    cyclic = true;
                } else {
                    has_exit = true;
                }
            }
        }
        if (members > 1) cyclic = true;
        // A loop the bound inference proved finite terminates by that very
        // proof — exempt it even when the side-effect heuristic sees nothing
        // (counted delay loops). A finitely-bounded loop always has an exit
        // edge, so this is belt-and-braces, but it keeps the two passes
        // independent.
        bool proven_finite = false;
        for (size_t b = 0; b < n; ++b) {
            if (comp[b] != c) continue;
            auto lit = loops_found_.find(blocks_[b].first);
            if (lit != loops_found_.end() && lit->second.bounded) proven_finite = true;
        }
        if (cyclic && !has_exit && !observable && !proven_finite &&
            !report_.interrupts_possible) {
            diag(Check::kLoop, Severity::kError, first_pc,
                 "busy loop at " + hex(first_pc) +
                     " has no exit edge and no observable side effect "
                     "(provably infinite)");
        }
    }
}

// --- certification ----------------------------------------------------------

/// Saturation cap for certificate arithmetic: large enough that any real
/// firmware bound fits, small enough that trips * cost never overflows.
constexpr uint64_t kCostCap = uint64_t(1) << 50;

uint64_t
sat_add(uint64_t a, uint64_t b) {
    return a > kCostCap - std::min(b, kCostCap) ? kCostCap : a + b;
}

uint64_t
sat_mul(uint64_t a, uint64_t b) {
    if (a == 0 || b == 0) return 0;
    return a > kCostCap / b ? kCostCap : a * b;
}

/// Ceil division for non-negative int64 operands.
uint64_t
ceil_div(int64_t num, int64_t den) {
    if (num <= 0) return 0;
    return uint64_t((num + den - 1) / den);
}

/// Trip-count inference for one counted loop: the SCC `C` entered at
/// `header`. Looks for a counter register written exactly once in the SCC
/// by `addi c, c, step`, where the counter's block lies on every cycle
/// through the header and on no inner cycle avoiding it — so every
/// iteration steps the counter exactly once, monotonically. Two bounds are
/// derived and the tighter wins:
///
///   * exit-test formulas: if an exit branch compares the counter against
///     x0 or a loop-invariant register, the continue condition plus the
///     counter's *entry* interval (join over loop-entering edges only)
///     yields a closed-form bound, with wraparound guards per form;
///   * interval width: the counter's fixpoint interval at its step block
///     already covers every iteration; a monotone step of |s| inside a
///     finite interval of width W can fire at most W/|s| times.
///
/// All bounds carry +2 slack (head-vs-latch test position, the final
/// failing test). Returns kUnboundedTrips when nothing matches.
uint64_t
Verifier::infer_loop_trips(const std::set<size_t>& C, size_t header) {
    // Census of registers written inside the SCC.
    struct WriteInfo {
        int count = 0;
        bool is_step = false;
        int64_t step = 0;
        size_t block = 0;
    };
    std::array<WriteInfo, 32> writes{};
    for (size_t b : C) {
        const BasicBlock& bb = blocks_[b];
        for (uint32_t pc = bb.first; pc <= bb.last; pc += 4) {
            const Insn& d = insns_[pc / 4];
            if (!writes_rd(d)) continue;
            WriteInfo& w = writes[d.rd];
            ++w.count;
            w.is_step =
                d.op == Op::kAluImm && d.funct3 == 0 && d.rs1 == d.rd && d.imm != 0;
            w.step = d.imm;
            w.block = b;
        }
    }

    // True if every cycle through `header` passes through `blk`
    // (no header-cycle avoids it).
    auto on_every_cycle = [&](size_t blk) {
        if (blk == header) return true;
        std::set<size_t> seen;
        std::deque<size_t> work;
        auto push = [&](size_t s) -> bool {
            if (!C.count(s) || s == blk) return false;
            if (s == header) return true;  // found a cycle avoiding blk
            if (seen.insert(s).second) work.push_back(s);
            return false;
        };
        for (size_t s : adj_[header]) {
            if (push(s)) return false;
        }
        while (!work.empty()) {
            size_t v = work.front();
            work.pop_front();
            for (size_t s : adj_[v]) {
                if (push(s)) return false;
            }
        }
        return true;
    };
    // True if `blk` is on no inner cycle (cannot reach itself within
    // C minus the header) — so it executes at most once per iteration.
    auto not_on_inner_cycle = [&](size_t blk) {
        if (blk == header) return true;
        std::set<size_t> seen;
        std::deque<size_t> work;
        auto push = [&](size_t s) -> bool {
            if (!C.count(s) || s == header) return false;
            if (s == blk) return true;
            if (seen.insert(s).second) work.push_back(s);
            return false;
        };
        for (size_t s : adj_[blk]) {
            if (push(s)) return false;
        }
        while (!work.empty()) {
            size_t v = work.front();
            work.pop_front();
            for (size_t s : adj_[v]) {
                if (push(s)) return false;
            }
        }
        return true;
    };

    // Join of a register's value over all loop-*entering* edges (global
    // predecessors outside the SCC, refined along the edge into the header).
    auto entry_interval = [&](int reg) -> AbsVal {
        AbsVal acc{};
        bool any = false;
        auto take = [&](const AbsVal& v) {
            AbsVal w = v.init ? v : AbsVal::top(true);
            if (!any) {
                acc = w;
                any = true;
            } else {
                acc.lo = std::min(acc.lo, w.lo);
                acc.hi = std::max(acc.hi, w.hi);
            }
        };
        if (roots_.count(blocks_[header].first)) take(AbsVal::top(true));
        for (size_t p = 0; p < blocks_.size(); ++p) {
            if (C.count(p) || in_states_[p].bottom) continue;
            bool edge = false;
            for (size_t s : adj_[p]) edge = edge || s == header;
            if (!edge) continue;
            RegState out =
                refine_edge(p, transfer(p, in_states_[p], false), blocks_[header].first);
            take(out.r[reg]);
        }
        return any ? acc : AbsVal::top(true);
    };

    uint64_t best = kUnboundedTrips;

    for (int c = 1; c < 32; ++c) {
        const WriteInfo& w = writes[c];
        if (w.count != 1 || !w.is_step) continue;
        if (!on_every_cycle(w.block) || !not_on_inner_cycle(w.block)) continue;
        const int64_t s = w.step;

        // Interval-width fallback: the fixpoint interval of c at the step
        // block covers all iterations; monotone stepping bounds the count.
        const AbsVal& fix = in_states_[w.block].r[c];
        if (fix.init && fix.lo > -kClamp && fix.hi < kClamp) {
            best = std::min(best, ceil_div(fix.hi - fix.lo, mag64(s)) + 2);
        }

        const AbsVal entry = entry_interval(c);
        const int64_t ilo = entry.lo, ihi = entry.hi;

        // Exit-test formulas: scan exit branches comparing c against a
        // loop-invariant bound.
        for (size_t b : C) {
            const Insn& t = insns_[blocks_[b].last / 4];
            if (t.op != Op::kBranch) continue;
            if (!on_every_cycle(b) || !not_on_inner_cycle(b)) continue;
            // Exactly one in-SCC successor (the continue edge) and at
            // least one exit edge.
            std::set<size_t> in_scc, out_scc;
            for (size_t sb : adj_[b]) (C.count(sb) ? in_scc : out_scc).insert(sb);
            if (in_scc.size() != 1 || out_scc.empty()) continue;
            const uint32_t taken = uint32_t(int64_t(blocks_[b].last) + t.imm);
            const uint32_t fall = blocks_[b].last + 4;
            if (taken == fall) continue;
            const bool cont_taken = blocks_[*in_scc.begin()].first == taken;

            int other = -1;
            bool swapped = false;  // counter is rs2
            if (t.rs1 == c && t.rs2 != c) {
                other = t.rs2;
            } else if (t.rs2 == c && t.rs1 != c) {
                other = t.rs1;
                swapped = true;
            } else {
                continue;
            }
            if (other != 0 && writes[other].count != 0) continue;  // not invariant

            // Normalize to a continue-condition on (c ? K).
            enum Cmp { kNe, kLt, kLe, kGt, kGe, kLtu, kLeu, kGtu, kGeu, kBad };
            Cmp cc = kBad;
            switch (t.funct3) {
            case 0: cc = cont_taken ? kBad : kNe; break;  // beq: continue on !=
            case 1: cc = cont_taken ? kNe : kBad; break;  // bne: continue on !=
            case 4: cc = cont_taken ? kLt : kGe; break;
            case 5: cc = cont_taken ? kGe : kLt; break;
            case 6: cc = cont_taken ? kLtu : kGeu; break;
            case 7: cc = cont_taken ? kGeu : kLtu; break;
            default: break;
            }
            if (cc == kBad) continue;
            if (swapped) {
                switch (cc) {
                case kLt: cc = kGt; break;
                case kGe: cc = kLe; break;
                case kLtu: cc = kGtu; break;
                case kGeu: cc = kLeu; break;
                default: break;  // kNe symmetric
                }
            }

            const AbsVal kv = other == 0 ? AbsVal::constant(0) : entry_interval(other);
            const int64_t Klo = kv.lo, Khi = kv.hi;
            const bool i32s = ilo >= kI32Min && ihi <= kI32Max && Klo >= kI32Min &&
                              Khi <= kI32Max;
            const bool wordu = ilo >= 0 && ihi <= kWordMax && Klo >= 0 && Khi <= kWordMax;

            uint64_t trips = kUnboundedTrips;
            switch (cc) {
            case kNe:
                // Equality exit needs an exact hit: only |step| == 1 with
                // the counter provably on the right side of K = 0.
                if (other != 0 || !i32s) break;
                if (s == -1 && ilo >= 1) trips = uint64_t(ihi) + 2;
                if (s == 1 && ihi <= -1) trips = uint64_t(-ilo) + 2;
                break;
            case kLt:
                if (s > 0 && i32s && Khi + s <= kI32Max + 1) {
                    trips = ceil_div(Khi - ilo, s) + 2;
                }
                break;
            case kLe:
                if (s > 0 && i32s && Khi + s <= kI32Max) {
                    trips = ceil_div(Khi + 1 - ilo, s) + 2;
                }
                break;
            case kGe:
                if (s < 0 && i32s && Klo + s >= kI32Min) {
                    trips = ceil_div(ihi - Klo + 1, -s) + 2;
                }
                break;
            case kGt:
                if (s < 0 && i32s && Klo + s >= kI32Min) {
                    trips = ceil_div(ihi - Klo, -s) + 2;
                }
                break;
            case kLtu:
                if (s > 0 && wordu && Khi + s <= kWordMax + 1) {
                    trips = ceil_div(Khi - ilo, s) + 2;
                }
                break;
            case kLeu:
                if (s > 0 && wordu && Khi + s <= kWordMax) {
                    trips = ceil_div(Khi + 1 - ilo, s) + 2;
                }
                break;
            case kGeu:
                // Decrement must not wrap below zero past the exit window.
                if (s < 0 && wordu && -s <= Klo) {
                    trips = ceil_div(ihi - Klo + 1, -s) + 2;
                }
                break;
            case kGtu:
                if (s < 0 && wordu && -s <= Klo + 1) {
                    trips = ceil_div(ihi - Klo, -s) + 2;
                }
                break;
            default:
                break;
            }
            best = std::min(best, trips);
        }
    }
    return best;
}

/// Worst-case cost of the subgraph induced by `nodes` entered at `entries`,
/// with `removed` edges deleted (back edges of enclosing loops). Condenses
/// the subgraph into SCCs, bounds each nontrivial SCC (trip count times the
/// worst path through one iteration body, computed recursively with the
/// header's back edges removed), then takes the longest path over the
/// condensation DAG. An unbounded SCC that touches MMIO counts one
/// traversal — the per-packet handler path of a service/poll loop — while
/// an unbounded SCC with no observable effect poisons the cost.
Verifier::PathCost
Verifier::wcet_subgraph(const std::set<size_t>& nodes, const std::set<size_t>& entries,
                        std::set<std::pair<size_t, size_t>> removed, int depth) {
    PathCost result;
    if (nodes.empty()) return result;
    if (depth > 64) {
        result.bounded = false;
        return result;
    }

    // Induced subgraph under local indices.
    std::vector<size_t> order(nodes.begin(), nodes.end());
    std::map<size_t, size_t> local;
    for (size_t i = 0; i < order.size(); ++i) local[order[i]] = i;
    std::vector<std::vector<size_t>> adj(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
        for (size_t s : adj_[order[i]]) {
            if (nodes.count(s) && !removed.count({order[i], s})) {
                adj[i].push_back(local[s]);
            }
        }
    }
    std::vector<int> comp;
    const int ncomp = tarjan_scc(adj, comp);

    // Per-component members and self-loop detection.
    std::vector<std::vector<size_t>> members(ncomp);  // local indices
    for (size_t i = 0; i < order.size(); ++i) members[comp[i]].push_back(i);
    std::vector<uint8_t> self_edge(ncomp, 0);
    for (size_t i = 0; i < order.size(); ++i) {
        for (size_t s : adj[i]) {
            if (s == i) self_edge[comp[i]] = 1;
        }
    }

    // Cost one component: either a single block or a bounded loop.
    std::vector<PathCost> cost(ncomp);
    for (int c = 0; c < ncomp; ++c) {
        const bool nontrivial = members[c].size() > 1 || self_edge[c];
        if (!nontrivial) {
            const size_t g = order[members[c][0]];
            cost[c].instrs = cost_instrs_[g];
            cost[c].cycles = cost_cycles_[g];
            cost[c].path = {g};
            continue;
        }
        std::set<size_t> scc;  // global ids
        for (size_t m : members[c]) scc.insert(order[m]);

        // Headers: entry blocks of the loop (named entries, or targets of
        // edges from outside the SCC). Irreducible (multi-header) loops are
        // not bounded.
        std::set<size_t> headers;
        for (size_t m : members[c]) {
            const size_t g = order[m];
            if (entries.count(g)) headers.insert(g);
        }
        for (size_t i = 0; i < order.size(); ++i) {
            if (comp[i] == c) continue;
            for (size_t s : adj[i]) {
                if (comp[s] == c) headers.insert(order[s]);
            }
        }
        bool observable = false;
        uint32_t lowest_pc = ~0u;
        for (size_t g : scc) {
            observable = observable || observable_[g];
            lowest_pc = std::min(lowest_pc, blocks_[g].first);
        }

        uint64_t trips = kUnboundedTrips;
        PathCost body;
        uint32_t header_pc = lowest_pc;
        if (headers.size() == 1) {
            const size_t h = *headers.begin();
            header_pc = blocks_[h].first;
            trips = infer_loop_trips(scc, h);
            auto inner_removed = removed;
            for (size_t g : scc) {
                for (size_t s : adj_[g]) {
                    if (s == h) inner_removed.insert({g, h});
                }
            }
            body = wcet_subgraph(scc, {h}, std::move(inner_removed), depth + 1);
        } else {
            body.bounded = false;  // irreducible: no single iteration body
        }

        // Record the loop in the certificate (dedup by header; keep the
        // tighter verdict when several roots reach the same loop).
        LoopBound lb{header_pc, trips != kUnboundedTrips,
                     trips == kUnboundedTrips ? 0 : trips, observable,
                     uint32_t(scc.size())};
        auto fit = loops_found_.find(header_pc);
        if (fit == loops_found_.end()) {
            loops_found_[header_pc] = lb;
        } else if (lb.bounded &&
                   (!fit->second.bounded || lb.max_trips < fit->second.max_trips)) {
            fit->second = lb;
        }

        if (trips != kUnboundedTrips && body.bounded) {
            cost[c].instrs = sat_mul(trips, body.instrs);
            cost[c].cycles = sat_mul(trips, body.cycles);
            cost[c].path = body.path;
        } else if (observable && body.bounded) {
            // Service/poll loop: per handler activation, one traversal.
            cost[c] = body;
        } else {
            cost[c].bounded = false;
        }
    }

    // Longest path over the condensation DAG. Tarjan ids are
    // reverse-topological (successor components get smaller ids), so a
    // single ascending sweep sees every successor before its predecessors.
    std::vector<std::vector<int>> csucc(ncomp);
    for (size_t i = 0; i < order.size(); ++i) {
        for (size_t s : adj[i]) {
            if (comp[s] != comp[i]) csucc[comp[i]].push_back(comp[s]);
        }
    }
    std::vector<uint64_t> dist_i(ncomp, 0), dist_c(ncomp, 0);
    std::vector<uint8_t> dist_bounded(ncomp, 1);
    std::vector<int> best_succ(ncomp, -1);
    for (int c = 0; c < ncomp; ++c) {
        uint64_t bi = 0, bc = 0;
        int bs = -1;
        bool ok = true;
        for (int s : csucc[c]) {
            if (!dist_bounded[s]) ok = false;
            if (dist_i[s] > bi || (dist_i[s] == bi && bs == -1)) {
                bi = dist_i[s];
                bc = dist_c[s];
                bs = s;
            }
        }
        dist_bounded[c] = ok && cost[c].bounded;
        dist_i[c] = sat_add(cost[c].instrs, bi);
        dist_c[c] = sat_add(cost[c].cycles, bc);
        best_succ[c] = bs;
    }

    // Answer: worst entry component.
    int start = -1;
    for (size_t g : entries) {
        auto it = local.find(g);
        if (it == local.end()) continue;
        const int c = comp[it->second];
        if (start == -1 || !dist_bounded[c] ||
            (dist_bounded[start] && dist_i[c] > dist_i[start])) {
            start = c;
        }
        if (!dist_bounded[c]) break;  // unbounded dominates
    }
    if (start == -1) return result;
    result.bounded = dist_bounded[start];
    result.instrs = dist_i[start];
    result.cycles = dist_c[start];
    for (int c = start; c != -1; c = best_succ[c]) {
        result.path.insert(result.path.end(), cost[c].path.begin(), cost[c].path.end());
    }
    return result;
}

/// Compute the line-rate certificate after the final analysis pass: per-root
/// WCET over the loop-bounded CFG, the loop table, per-block costs with the
/// critical path marked, the stack-depth bound, and the store-footprint /
/// text-write-separation facts accumulated during the emit pass.
void
Verifier::certify() {
    Certificate& cert = report_.cert;
    std::set<size_t> all;
    for (size_t b = 0; b < blocks_.size(); ++b) all.insert(b);

    std::set<size_t> critical;
    uint64_t worst_i = 0, worst_c = 0;
    bool all_bounded = true;
    for (uint32_t r : roots_) {
        auto it = block_at_.find(r);
        if (it == block_at_.end()) continue;
        PathCost pc = wcet_subgraph(all, {it->second}, {}, 0);
        // A reachable indirect jump defeats the longest-path bound: the
        // CFG carries no edge for the target.
        const bool bounded = pc.bounded && !has_indirect_jump_;
        cert.roots.push_back({r, bounded, pc.instrs, pc.cycles});
        all_bounded = all_bounded && bounded;
        if (bounded && pc.instrs >= worst_i) {
            worst_i = pc.instrs;
            worst_c = std::max(worst_c, pc.cycles);
            critical.clear();
            critical.insert(pc.path.begin(), pc.path.end());
        }
    }
    cert.wcet_bounded = all_bounded && !cert.roots.empty();
    cert.wcet_instructions = cert.wcet_bounded ? worst_i : 0;
    cert.wcet_cycles = cert.wcet_bounded ? worst_c : 0;

    for (const auto& [pc, lb] : loops_found_) cert.loops.push_back(lb);
    for (size_t b = 0; b < blocks_.size(); ++b) {
        cert.block_costs[blocks_[b].first] = {cost_instrs_[b], cost_cycles_[b],
                                              cert.wcet_bounded && critical.count(b) > 0};
    }

    cert.stack_bounded = !sp_written_ || !sp_top_;
    cert.stack_bytes =
        sp_written_ && !sp_top_ ? uint32_t(sp_hi_ - sp_lo_) : 0;

    cert.text_write_separation = !store_may_hit_text_ && unproven_stores_ == 0;
    cert.unproven_stores = unproven_stores_;
    for (size_t i = 0; i < std::size(kStoreRegions); ++i) {
        const RegionAcc& acc = region_writes_[i];
        if (!acc.any) continue;
        cert.writes.push_back(
            {kStoreRegions[i].name, uint32_t(acc.lo), uint32_t(acc.hi)});
    }
}

void
Verifier::check_slot_window() {
    const SlotWindow& s = opts_.slots;
    if (s.count == 0) return;
    const uint64_t end = uint64_t(s.base) + uint64_t(s.count) * s.size;
    if (s.base < rpu::kPmemBase || end > uint64_t(rpu::kPmemBase) + rpu::kPmemSize) {
        diag(Check::kSlots, Severity::kError, 0,
             "slot window [" + hex(s.base) + ", " + hex(uint32_t(end)) + ") — " +
                 std::to_string(s.count) + " slots of " + std::to_string(s.size) +
                 " bytes — does not fit packet memory");
    }
    if (s.count > 250) {
        diag(Check::kSlots, Severity::kError, 0,
             "slot count " + std::to_string(s.count) +
                 " exceeds the descriptor tag range (250)");
    }
}

Report
Verifier::run() {
    if (image_.empty()) {
        diag(Check::kCfg, Severity::kError, 0, "empty firmware image");
        return std::move(report_);
    }
    if ((opts_.entry & 3) || opts_.entry >= end_addr()) {
        diag(Check::kCfg, Severity::kError, opts_.entry,
             "entry point " + hex(opts_.entry) + " is not a valid instruction address");
        return std::move(report_);
    }
    check_slot_window();

    // Interrupt handlers discovered through constant mtvec writes become
    // extra CFG roots; iterate until the root set is stable.
    roots_ = {opts_.entry};
    for (int iter = 0; iter < 4; ++iter) {
        discover_from_roots();
        build_blocks();
        fixpoint();
        size_t before = roots_.size();
        for (uint32_t h : handler_roots_) {
            if (h < end_addr() && (h & 3) == 0) roots_.insert(h);
        }
        if (roots_.size() == before) break;
    }

    // Final pass: walk every reachable block once with diagnostics on.
    for (size_t b = 0; b < blocks_.size(); ++b) {
        if (in_states_[b].bottom) continue;
        transfer(b, in_states_[b], /*emit=*/true);
        // Edge diagnostics (bad targets, fall-off-the-end).
        successors(blocks_[b].last, insns_[blocks_[b].last / 4], /*emit_diags=*/true);
    }
    certify();  // before find_busy_loops: proven-finite loops are exempt
    find_busy_loops();
    scan_unreachable();

    report_.blocks = blocks_;
    report_.roots.assign(roots_.begin(), roots_.end());
    for (uint8_t r : reachable_) report_.instructions += r;
    std::sort(report_.diags.begin(), report_.diags.end(),
              [](const Diagnostic& a, const Diagnostic& b) { return a.pc < b.pc; });
    return std::move(report_);
}

}  // namespace

// --- public API -------------------------------------------------------------

const char*
check_name(Check c) {
    switch (c) {
    case Check::kDecode: return "decode";
    case Check::kCfg: return "cfg";
    case Check::kMemory: return "memory";
    case Check::kMmio: return "mmio";
    case Check::kCsr: return "csr";
    case Check::kUninit: return "uninit";
    case Check::kUnreachable: return "unreachable";
    case Check::kLoop: return "loop";
    case Check::kSlots: return "slots";
    }
    return "?";
}

size_t
Report::errors() const {
    size_t n = 0;
    for (const auto& d : diags) n += d.severity == Severity::kError;
    return n;
}

size_t
Report::warnings() const {
    return diags.size() - errors();
}

bool
Report::check_passed(Check c) const {
    for (const auto& d : diags) {
        if (d.check == c) return false;
    }
    return true;
}

std::string
Report::summary() const {
    std::string out;
    for (const auto& d : diags) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s[%s] pc=0x%x: ",
                      d.severity == Severity::kError ? "error" : "warning",
                      check_name(d.check), d.pc);
        out += buf;
        out += d.message;
        out += "\n";
    }
    return out;
}

Report
verify_image(const std::vector<uint32_t>& image, const Options& opts) {
    return Verifier(image, opts).run();
}

std::string
cfg_dot(const std::vector<uint32_t>& image, const Report& report, const std::string& name) {
    // Loop headers by address for the per-block annotation.
    std::map<uint32_t, const LoopBound*> loops;
    for (const auto& lb : report.cert.loops) loops[lb.header] = &lb;

    std::string out = "digraph \"" + name + "\" {\n";
    out += "  node [shape=box, fontname=\"monospace\", fontsize=9];\n";
    for (const auto& bb : report.blocks) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  \"%x\" [label=\"", bb.first);
        out += buf;
        for (uint32_t pc = bb.first; pc <= bb.last && pc / 4 < image.size(); pc += 4) {
            std::snprintf(buf, sizeof(buf), "%04x: ", pc);
            out += buf;
            out += rv::disassemble(image[pc / 4], pc);
            out += "\\l";
        }
        // Certificate annotations: per-block static cost, loop bound at
        // headers, critical (WCET) path highlighted.
        auto cit = report.cert.block_costs.find(bb.first);
        if (cit != report.cert.block_costs.end()) {
            std::snprintf(buf, sizeof(buf), "[%u insns / %u cyc]\\l",
                          cit->second.instructions, cit->second.cycles);
            out += buf;
        }
        auto lit = loops.find(bb.first);
        if (lit != loops.end()) {
            const LoopBound& lb = *lit->second;
            if (lb.bounded) {
                std::snprintf(buf, sizeof(buf), "loop <= %llu trips\\l",
                              static_cast<unsigned long long>(lb.max_trips));
                out += buf;
            } else {
                out += lb.observable ? "service loop\\l" : "unbounded loop\\l";
            }
        }
        out += "\"";
        if (cit != report.cert.block_costs.end() && cit->second.critical) {
            out += ", color=red, penwidth=2";
        }
        out += "];\n";
        for (uint32_t s : bb.succs) {
            std::snprintf(buf, sizeof(buf), "  \"%x\" -> \"%x\";\n", bb.first, s);
            out += buf;
        }
    }
    out += "}\n";
    return out;
}

std::string
certificate_json(const Report& report, const std::string& name) {
    const Certificate& c = report.cert;
    obs::JsonWriter w;
    w.begin_object();
    w.key("name").value(name);
    w.key("ok").value(report.ok());
    w.key("errors").value(uint64_t(report.errors()));
    w.key("warnings").value(uint64_t(report.warnings()));
    w.key("instructions").value(uint64_t(report.instructions));
    w.key("blocks").value(uint64_t(report.blocks.size()));

    w.key("wcet").begin_object();
    w.key("bounded").value(c.wcet_bounded);
    w.key("instructions").value(c.wcet_instructions);
    w.key("cycles").value(c.wcet_cycles);
    w.key("roots").begin_array();
    for (const auto& r : c.roots) {
        w.begin_object();
        w.key("root").value(uint64_t(r.root));
        w.key("bounded").value(r.bounded);
        w.key("instructions").value(r.instructions);
        w.key("cycles").value(r.cycles);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    w.key("loops").begin_array();
    for (const auto& lb : c.loops) {
        w.begin_object();
        w.key("header").value(uint64_t(lb.header));
        w.key("bounded").value(lb.bounded);
        w.key("max_trips").value(lb.max_trips);
        w.key("observable").value(lb.observable);
        w.key("blocks").value(uint64_t(lb.blocks));
        w.end_object();
    }
    w.end_array();

    w.key("stack").begin_object();
    w.key("bounded").value(c.stack_bounded);
    w.key("bytes").value(uint64_t(c.stack_bytes));
    w.end_object();

    w.key("text_write_separation").value(c.text_write_separation);
    w.key("unproven_stores").value(uint64_t(c.unproven_stores));
    w.key("writes").begin_array();
    for (const auto& rw : c.writes) {
        w.begin_object();
        w.key("region").value(rw.region);
        w.key("lo").value(uint64_t(rw.lo));
        w.key("hi").value(uint64_t(rw.hi));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace rosebud::verify
