#include "rv/core.h"

#include <algorithm>

#include "sim/log.h"

namespace rosebud::rv {

Core::Core(std::string name, Bus& bus, CostModel costs)
    : name_(std::move(name)), bus_(bus), costs_(costs) {}

void
Core::reset(uint32_t pc) {
    regs_.fill(0);
    csrs_ = TrapCsrs{};
    irq_line_ = false;
    pc_ = pc;
    cycles_ = 0;
    instret_ = 0;
    stall_ = 0;
    halted_ = false;
    faulted_ = false;
    icache_invalidate();
}

void
Core::icache_invalidate() {
    icache_.zero();
}

void
Core::icache_invalidate(uint32_t addr, uint32_t len) {
    if (len == 0) return;
    uint64_t first = addr >> 2;
    if (first >= icache_.size()) return;
    uint64_t last = std::min<uint64_t>((uint64_t(addr) + len - 1) >> 2,
                                       icache_.size() - 1);
    for (uint64_t i = first; i <= last; ++i) icache_[i] = Decoded{};
}

void
Core::tick() {
    ++cycles_;
    if (halted_) return;
    if (stall_ > 0) {
        if (profile_) {
            ++profiled_cycles_;
            ++pc_hist_[issue_pc_];
        }
        --stall_;
        return;
    }
    if (profile_) {
        ++profiled_cycles_;
        ++pc_hist_[pc_];
    }
    issue_pc_ = pc_;
    execute();
}

uint64_t
Core::run(uint64_t max_cycles) {
    uint64_t start = cycles_;
    while (!halted_ && cycles_ - start < max_cycles) tick();
    return cycles_ - start;
}

Decoded
Core::decode(uint32_t insn) {
    Decoded d;
    d.raw = insn;
    d.rd = dec_rd(insn);
    d.rs1 = dec_rs1(insn);
    d.rs2 = dec_rs2(insn);
    const uint32_t funct3 = dec_funct3(insn);
    const uint32_t funct7 = dec_funct7(insn);
    d.aux = uint8_t(funct3);

    switch (dec_opcode(insn)) {
    case kOpLui:
        d.op = Decoded::kLui;
        d.imm = dec_imm_u(insn);
        break;
    case kOpAuipc:
        d.op = Decoded::kAuipc;
        d.imm = dec_imm_u(insn);
        break;
    case kOpJal:
        d.op = Decoded::kJal;
        d.imm = dec_imm_j(insn);
        break;
    case kOpJalr:
        d.op = Decoded::kJalr;
        d.imm = dec_imm_i(insn);
        break;
    case kOpBranch: {
        d.imm = dec_imm_b(insn);
        switch (funct3) {
        case 0: d.op = Decoded::kBeq; break;
        case 1: d.op = Decoded::kBne; break;
        case 4: d.op = Decoded::kBlt; break;
        case 5: d.op = Decoded::kBge; break;
        case 6: d.op = Decoded::kBltu; break;
        case 7: d.op = Decoded::kBgeu; break;
        default: d.op = Decoded::kIllegal; break;
        }
        break;
    }
    case kOpLoad: {
        d.imm = dec_imm_i(insn);
        switch (funct3) {
        case 0: d.op = Decoded::kLb; break;
        case 1: d.op = Decoded::kLh; break;
        case 2: d.op = Decoded::kLw; break;
        case 4: d.op = Decoded::kLbu; break;
        case 5: d.op = Decoded::kLhu; break;
        // Bad load widths still issue the bus access before trapping
        // (matching the re-decoding interpreter).
        default: d.op = Decoded::kLoadBad; break;
        }
        break;
    }
    case kOpStore: {
        d.imm = dec_imm_s(insn);
        switch (funct3) {
        case 0: d.op = Decoded::kSb; break;
        case 1: d.op = Decoded::kSh; break;
        case 2: d.op = Decoded::kSw; break;
        default: d.op = Decoded::kIllegal; break;  // traps before the bus
        }
        break;
    }
    case kOpImm: {
        d.imm = dec_imm_i(insn);
        switch (funct3) {
        case 0: d.op = Decoded::kAddi; break;
        case 1: d.op = Decoded::kSlli; break;
        case 2: d.op = Decoded::kSlti; break;
        case 3: d.op = Decoded::kSltiu; break;
        case 4: d.op = Decoded::kXori; break;
        case 5: d.op = (insn & (1u << 30)) ? Decoded::kSrai : Decoded::kSrli; break;
        case 6: d.op = Decoded::kOri; break;
        case 7: d.op = Decoded::kAndi; break;
        }
        break;
    }
    case kOpReg:
        if (funct7 == 0x01) {  // M extension
            switch (funct3) {
            case 0: d.op = Decoded::kMul; break;
            case 1: d.op = Decoded::kMulh; break;
            case 2: d.op = Decoded::kMulhsu; break;
            case 3: d.op = Decoded::kMulhu; break;
            case 4: d.op = Decoded::kDiv; break;
            case 5: d.op = Decoded::kDivu; break;
            case 6: d.op = Decoded::kRem; break;
            case 7: d.op = Decoded::kRemu; break;
            }
        } else {
            switch (funct3) {
            case 0: d.op = funct7 == 0x20 ? Decoded::kSub : Decoded::kAdd; break;
            case 1: d.op = Decoded::kSll; break;
            case 2: d.op = Decoded::kSlt; break;
            case 3: d.op = Decoded::kSltu; break;
            case 4: d.op = Decoded::kXor; break;
            case 5: d.op = funct7 == 0x20 ? Decoded::kSra : Decoded::kSrl; break;
            case 6: d.op = Decoded::kOr; break;
            case 7: d.op = Decoded::kAnd; break;
            }
        }
        break;
    case kOpMiscMem:
        // All fences are architectural no-ops here; fence.i additionally
        // flushes the decoded-instruction cache.
        d.op = funct3 == 1 ? Decoded::kFenceI : Decoded::kFence;
        break;
    case kOpSystem:
        if (funct3 == 0) {
            d.op = insn == 0x30200073 ? Decoded::kMret : Decoded::kHalt;
        } else {
            d.op = Decoded::kCsr;
        }
        break;
    default:
        d.op = Decoded::kIllegal;
        break;
    }
    return d;
}

Decoded
Core::fetch_decoded(uint32_t pc) {
    if (predecode_) {
        const uint32_t idx = pc >> 2;
        if (idx < kIcacheWords) {
            Decoded& d = icache_[idx];
            if (d.op == Decoded::kInvalid) d = decode(bus_.fetch(pc));
            return d;
        }
    }
    return decode(bus_.fetch(pc));
}

void
Core::set_idle_watch(bool on) {
    idle_watch_ = on;
    watch_have_anchor_ = false;
    watch_looped_ = false;
    watch_dirty_ = false;
    loop_stable_ = false;
}

void
Core::watch_observe() {
    if (loop_stable_) return;  // already proven; the owner will sleep soon
    // Arming usually lands on the tail of a packet path that the idle loop
    // never revisits: the first back-edge after it re-anchors at its
    // target instead of waiting out kMaxWatchPeriod.
    const bool first_back_edge =
        watch_have_anchor_ && !watch_looped_ && pc_ <= watch_prev_pc_;
    watch_prev_pc_ = pc_;
    if (first_back_edge) watch_looped_ = true;
    if (first_back_edge || !watch_have_anchor_ || watch_dirty_ ||
        cycles_ - watch_cycles_ > kMaxWatchPeriod) {
        watch_have_anchor_ = true;
        watch_dirty_ = false;
        watch_pc_ = pc_;
        watch_regs_ = regs_;
        watch_csrs_ = csrs_;
        watch_cycles_ = cycles_;
        watch_instret_ = instret_;
        return;
    }
    if (pc_ != watch_pc_) return;
    if (regs_ == watch_regs_ && csrs_.mstatus == watch_csrs_.mstatus &&
        csrs_.mtvec == watch_csrs_.mtvec && csrs_.mepc == watch_csrs_.mepc &&
        csrs_.mcause == watch_csrs_.mcause) {
        loop_stable_ = true;
        loop_period_ = cycles_ - watch_cycles_;
        loop_instret_ = instret_ - watch_instret_;
    } else {
        // Same PC, different state: slide the anchor to the current state.
        watch_regs_ = regs_;
        watch_csrs_ = csrs_;
        watch_cycles_ = cycles_;
        watch_instret_ = instret_;
    }
}

void
Core::skip_idle_cycles(uint64_t n) {
    if (halted_) {
        cycles_ += n;
        return;
    }
    if (loop_stable_ && loop_period_ > 0) {
        uint64_t full = n / loop_period_;
        cycles_ += full * loop_period_;
        instret_ += full * loop_instret_;
        n %= loop_period_;
    }
    // Remainder (or, defensively, everything if no loop is proven — the
    // owner should not have slept in that case) replays tick-by-tick.
    for (; n > 0; --n) tick();
}

void
Core::execute() {
    // Observe the anchor *before* the instruction (and before a potential
    // IRQ redirect): periodicity of the whole issue pattern is what must
    // repeat, trap entries included.
    if (idle_watch_) watch_observe();
    // Take a pending machine external interrupt at an instruction boundary.
    if (irq_line_ && (csrs_.mstatus & 0x8)) {
        csrs_.mepc = pc_;
        csrs_.mcause = 0x8000000b;  // machine external interrupt
        // MPIE := MIE; MIE := 0.
        csrs_.mstatus = (csrs_.mstatus & ~0x88u) | ((csrs_.mstatus & 0x8) << 4);
        pc_ = csrs_.mtvec & ~3u;
        stall_ = 2;  // pipeline flush into the handler
        return;
    }
    exec_decoded(fetch_decoded(pc_));
}

void
Core::exec_decoded(const Decoded& d) {
    uint32_t next_pc = pc_ + 4;
    uint32_t cost = costs_.alu;

    const uint32_t v1 = regs_[d.rs1];
    const uint32_t v2 = regs_[d.rs2];
    const int32_t imm = d.imm;

    auto write_rd = [&](uint32_t v) {
        if (d.rd != zero) regs_[d.rd] = v;
    };
    auto branch = [&](bool taken) {
        if (taken) {
            next_pc = pc_ + uint32_t(imm);
            cost = costs_.branch_taken;
        } else {
            cost = costs_.branch_not_taken;
        }
    };

    switch (d.op) {
    case Decoded::kLui: write_rd(uint32_t(imm)); break;
    case Decoded::kAuipc: write_rd(pc_ + uint32_t(imm)); break;

    case Decoded::kJal:
        write_rd(pc_ + 4);
        next_pc = pc_ + uint32_t(imm);
        cost = costs_.jump;
        break;

    case Decoded::kJalr: {
        uint32_t target = (v1 + uint32_t(imm)) & ~1u;
        write_rd(pc_ + 4);
        next_pc = target;
        cost = costs_.jump;
        break;
    }

    case Decoded::kBeq: branch(v1 == v2); break;
    case Decoded::kBne: branch(v1 != v2); break;
    case Decoded::kBlt: branch(int32_t(v1) < int32_t(v2)); break;
    case Decoded::kBge: branch(int32_t(v1) >= int32_t(v2)); break;
    case Decoded::kBltu: branch(v1 < v2); break;
    case Decoded::kBgeu: branch(v1 >= v2); break;

    case Decoded::kLb:
    case Decoded::kLh:
    case Decoded::kLw:
    case Decoded::kLbu:
    case Decoded::kLhu:
    case Decoded::kLoadBad: {
        uint32_t addr = v1 + uint32_t(imm);
        uint32_t size = 1u << (d.aux & 3);
        if (idle_watch_ && !bus_.watch_safe_read(addr)) watch_dirty_ = true;
        Bus::Access a = bus_.load(addr, size);
        if (a.retry) return;  // re-issue next cycle; pc unchanged
        if (a.fault) {
            faulted_ = halted_ = true;
            return;
        }
        uint32_t v = a.value;
        switch (d.op) {
        case Decoded::kLb: v = uint32_t(int32_t(int8_t(v))); break;
        case Decoded::kLh: v = uint32_t(int32_t(int16_t(v))); break;
        case Decoded::kLw: break;
        case Decoded::kLbu: v &= 0xff; break;
        case Decoded::kLhu: v &= 0xffff; break;
        default:
            faulted_ = halted_ = true;
            return;
        }
        write_rd(v);
        cost = a.cycles;
        break;
    }

    case Decoded::kSb:
    case Decoded::kSh:
    case Decoded::kSw: {
        uint32_t addr = v1 + uint32_t(imm);
        uint32_t size = 1u << (d.aux & 3);
        if (idle_watch_) watch_dirty_ = true;  // stores are never loop-pure
        Bus::Access a = bus_.store(addr, size, v2);
        if (a.retry) return;
        if (a.fault) {
            faulted_ = halted_ = true;
            return;
        }
        cost = a.cycles;
        break;
    }

    case Decoded::kAddi: write_rd(v1 + uint32_t(imm)); break;
    case Decoded::kSlli: write_rd(v1 << (imm & 0x1f)); break;
    case Decoded::kSlti: write_rd(int32_t(v1) < imm ? 1 : 0); break;
    case Decoded::kSltiu: write_rd(v1 < uint32_t(imm) ? 1 : 0); break;
    case Decoded::kXori: write_rd(v1 ^ uint32_t(imm)); break;
    case Decoded::kSrli: write_rd(v1 >> (imm & 0x1f)); break;
    case Decoded::kSrai: write_rd(uint32_t(int32_t(v1) >> (imm & 0x1f))); break;
    case Decoded::kOri: write_rd(v1 | uint32_t(imm)); break;
    case Decoded::kAndi: write_rd(v1 & uint32_t(imm)); break;

    case Decoded::kAdd: write_rd(v1 + v2); break;
    case Decoded::kSub: write_rd(v1 - v2); break;
    case Decoded::kSll: write_rd(v1 << (v2 & 0x1f)); break;
    case Decoded::kSlt: write_rd(int32_t(v1) < int32_t(v2) ? 1 : 0); break;
    case Decoded::kSltu: write_rd(v1 < v2 ? 1 : 0); break;
    case Decoded::kXor: write_rd(v1 ^ v2); break;
    case Decoded::kSrl: write_rd(v1 >> (v2 & 0x1f)); break;
    case Decoded::kSra: write_rd(uint32_t(int32_t(v1) >> (v2 & 0x1f))); break;
    case Decoded::kOr: write_rd(v1 | v2); break;
    case Decoded::kAnd: write_rd(v1 & v2); break;

    case Decoded::kMul:
        write_rd(v1 * v2);
        cost = costs_.mul;
        break;
    case Decoded::kMulh:
        write_rd(uint32_t((int64_t(int32_t(v1)) * int64_t(int32_t(v2))) >> 32));
        cost = costs_.mul;
        break;
    case Decoded::kMulhsu:
        write_rd(uint32_t((int64_t(int32_t(v1)) * int64_t(uint64_t(v2))) >> 32));
        cost = costs_.mul;
        break;
    case Decoded::kMulhu:
        write_rd(uint32_t((uint64_t(v1) * uint64_t(v2)) >> 32));
        cost = costs_.mul;
        break;
    case Decoded::kDiv:
        if (v2 == 0) {
            write_rd(~0u);
        } else if (v1 == 0x80000000u && v2 == ~0u) {
            write_rd(0x80000000u);
        } else {
            write_rd(uint32_t(int32_t(v1) / int32_t(v2)));
        }
        cost = costs_.div;
        break;
    case Decoded::kDivu:
        write_rd(v2 == 0 ? ~0u : v1 / v2);
        cost = costs_.div;
        break;
    case Decoded::kRem:
        if (v2 == 0) {
            write_rd(v1);
        } else if (v1 == 0x80000000u && v2 == ~0u) {
            write_rd(0);
        } else {
            write_rd(uint32_t(int32_t(v1) % int32_t(v2)));
        }
        cost = costs_.div;
        break;
    case Decoded::kRemu:
        write_rd(v2 == 0 ? v1 : v1 % v2);
        cost = costs_.div;
        break;

    case Decoded::kFence:
        break;
    case Decoded::kFenceI:
        icache_invalidate();
        break;

    case Decoded::kMret:
        next_pc = csrs_.mepc;
        // MIE := MPIE; MPIE := 1.
        csrs_.mstatus = (csrs_.mstatus & ~0x8u) | ((csrs_.mstatus >> 4) & 0x8) | 0x80;
        cost = costs_.jump;
        break;

    case Decoded::kHalt:
        // ecall / ebreak halt the core (used by firmware tests to
        // terminate and by the RPU's spin-wait debugging).
        halted_ = true;
        return;

    case Decoded::kCsr: {
        // CSR reads may observe time (cycle/instret), which keeps changing
        // while "idle" — a loop containing one is never provably periodic.
        if (idle_watch_) watch_dirty_ = true;
        const uint32_t csr = d.raw >> 20;
        const uint32_t funct3 = d.aux;
        // CSR read (all) + write (trap CSRs only; counters are read-only).
        uint32_t value = 0;
        uint32_t* writable = nullptr;
        switch (csr) {
        case kCsrCycle:
        case kCsrTime: value = uint32_t(cycles_); break;
        case kCsrCycleH:
        case kCsrTimeH: value = uint32_t(cycles_ >> 32); break;
        case kCsrInstret: value = uint32_t(instret_); break;
        case kCsrInstretH: value = uint32_t(instret_ >> 32); break;
        case kCsrMstatus: writable = &csrs_.mstatus; break;
        case kCsrMtvec: writable = &csrs_.mtvec; break;
        case kCsrMepc: writable = &csrs_.mepc; break;
        case kCsrMcause: writable = &csrs_.mcause; break;
        default: value = 0; break;
        }
        if (writable) value = *writable;
        if (writable && !(funct3 != 1 && d.rs1 == zero)) {
            // csrrw writes v1; csrrs sets bits; csrrc clears bits.
            switch (funct3) {
            case 1: *writable = v1; break;
            case 2: *writable = value | v1; break;
            case 3: *writable = value & ~v1; break;
            default: break;
            }
        }
        write_rd(value);
        cost = costs_.csr;
        break;
    }

    case Decoded::kInvalid:
    case Decoded::kIllegal:
    default:
        faulted_ = halted_ = true;
        return;
    }

    // Instruction-address-misaligned: a control transfer whose target is
    // not word-aligned (jalr keeps bit 1, mret takes mepc verbatim) traps
    // instead of silently fetching the rounded-down word. Surfaced by the
    // conformance fuzzer's golden-model lockstep (src/fuzz/ref_model.cc).
    if (next_pc & 3) {
        faulted_ = halted_ = true;
        return;
    }
    pc_ = next_pc;
    ++instret_;
    stall_ = cost - 1;
}

}  // namespace rosebud::rv
