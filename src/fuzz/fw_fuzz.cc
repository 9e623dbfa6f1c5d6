#include "fuzz/fw_fuzz.h"

#include <algorithm>
#include <cstdio>

#include "fuzz/ref_model.h"
#include "rpu/descriptor.h"
#include "rv/core.h"
#include "rv/isa.h"
#include "sim/random.h"
#include "verify/verifier.h"

namespace rosebud::fuzz {

namespace {

using rv::Reg;

constexpr uint32_t kNop = 0x00000013;     // addi x0, x0, 0
constexpr uint32_t kEbreak = 0x00100073;

/// Register roles. x5/x6 are pinned window bases so every generated
/// load/store has a verifier-provable constant base; x7 is the loop
/// counter, which no template body may write.
constexpr Reg kDmemReg = rv::x5;
constexpr Reg kIoReg = rv::x6;
constexpr Reg kLoopReg = rv::x7;

Reg
pool_reg(sim::Rng& rng) {
    // Everything except x0 and the three pinned roles.
    static constexpr Reg kPool[] = {
        rv::x1,  rv::x2,  rv::x3,  rv::x4,  rv::x8,  rv::x9,  rv::x10, rv::x11,
        rv::x12, rv::x13, rv::x14, rv::x15, rv::x16, rv::x17, rv::x18, rv::x19,
        rv::x20, rv::x21, rv::x22, rv::x23, rv::x24, rv::x25, rv::x26, rv::x27,
        rv::x28, rv::x29, rv::x30, rv::x31,
    };
    return kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
}

// --- shared deterministic memory/device model ------------------------------
//
// Two independent instances (one per lockstep side) of the same model: a
// DMEM RAM window, the firmware image as IMEM, and a tiny interconnect
// device whose receive registers pop values from a seeded LCG and whose
// send/debug registers fold every write into a digest. Identical programs
// issue identical access sequences, so the device state of the two sides
// must match — the ISA implementations are the only differential variable.
class FuzzMem final : public RefMem {
 public:
    FuzzMem(const std::vector<uint32_t>& image, uint64_t device_seed)
        : image_(image), dmem_(rpu::kDmemSize, 0), lcg_(device_seed | 1) {}

    Access load(uint32_t addr, uint32_t size) override {
        Access acc;
        if (size != 1 && size != 2 && size != 4) {
            acc.fault = true;
            return acc;
        }
        if (addr % size) {  // natural alignment, like the RPU buses
            acc.fault = true;
            return acc;
        }
        if (addr >= rpu::kDmemBase &&
            uint64_t(addr) + size <= rpu::kDmemBase + rpu::kDmemSize) {
            uint32_t off = addr - rpu::kDmemBase;
            for (uint32_t i = 0; i < size; ++i)
                acc.value |= uint32_t(dmem_[off + i]) << (8 * i);
            return acc;
        }
        if (addr >= rpu::kIoBase && addr < rpu::kIoBase + rpu::kIoSize) {
            if (size != 4) {
                acc.fault = true;
                return acc;
            }
            switch (addr - rpu::kIoBase) {
            case rpu::kRegRecvLow:
            case rpu::kRegRecvHigh: acc.value = lcg_next(); break;
            case rpu::kRegRxReady: acc.value = 1; break;
            case rpu::kRegDebugLow: acc.value = debug_lo_; break;
            case rpu::kRegDebugHigh: acc.value = debug_hi_; break;
            default: acc.fault = true; break;
            }
            return acc;
        }
        acc.fault = true;
        return acc;
    }

    Access store(uint32_t addr, uint32_t size, uint32_t value) override {
        Access acc;
        if (size != 1 && size != 2 && size != 4) {
            acc.fault = true;
            return acc;
        }
        if (addr % size) {
            acc.fault = true;
            return acc;
        }
        if (size < 4) value &= (1u << (8 * size)) - 1;
        if (addr >= rpu::kDmemBase &&
            uint64_t(addr) + size <= rpu::kDmemBase + rpu::kDmemSize) {
            uint32_t off = addr - rpu::kDmemBase;
            for (uint32_t i = 0; i < size; ++i)
                dmem_[off + i] = uint8_t(value >> (8 * i));
            return acc;
        }
        if (addr >= rpu::kIoBase && addr < rpu::kIoBase + rpu::kIoSize) {
            if (size != 4) {
                acc.fault = true;
                return acc;
            }
            switch (addr - rpu::kIoBase) {
            case rpu::kRegDebugLow: debug_lo_ = value; break;
            case rpu::kRegDebugHigh: debug_hi_ = value; break;
            case rpu::kRegSendLow:
            case rpu::kRegSendHigh:
            case rpu::kRegRecvRelease: break;  // digest-only sinks
            default: acc.fault = true; return acc;
            }
            digest_ = (digest_ ^ (uint64_t(addr) << 32 | value)) * 0x100000001b3ULL;
            return acc;
        }
        acc.fault = true;
        return acc;
    }

    uint32_t fetch(uint32_t addr) override {
        uint32_t idx = addr >> 2;
        return idx < image_.size() ? image_[idx] : kEbreak;
    }

    uint64_t device_digest() const { return digest_; }
    const std::vector<uint8_t>& dmem() const { return dmem_; }

 private:
    uint32_t lcg_next() {
        lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return uint32_t(lcg_ >> 32);
    }

    const std::vector<uint32_t>& image_;
    std::vector<uint8_t> dmem_;
    uint64_t lcg_;
    uint64_t digest_ = 0;
    uint32_t debug_lo_ = 0;
    uint32_t debug_hi_ = 0;
};

/// rv::Bus adapter over FuzzMem (flat 1-cycle timing, no retries — the
/// lockstep compares architecture, not time).
class CoreBus final : public rv::Bus {
 public:
    explicit CoreBus(FuzzMem& m) : m_(m) {}

    rv::Bus::Access load(uint32_t addr, uint32_t size) override {
        auto a = m_.load(addr, size);
        return {a.value, 1, false, a.fault};
    }
    rv::Bus::Access store(uint32_t addr, uint32_t size, uint32_t value) override {
        auto a = m_.store(addr, size, value);
        return {a.value, 1, false, a.fault};
    }
    uint32_t fetch(uint32_t addr) override { return m_.fetch(addr); }

 private:
    FuzzMem& m_;
};

// --- admissible program generator ------------------------------------------

void
emit_reg_init(std::vector<uint32_t>& code, sim::Rng& rng, Reg r) {
    using namespace rv;
    switch (rng.below(5)) {
    case 0:  // INT_MIN — the div/rem edge operand
        code.push_back(encode_u(0x80000, r, kOpLui));
        break;
    case 1:  // -1 — the other div/rem edge operand
        code.push_back(encode_i(-1, zero, 0, r, kOpImm));
        break;
    case 2:  // INT_MAX
        code.push_back(encode_u(0x80000, r, kOpLui));
        code.push_back(encode_i(-1, r, 0, r, kOpImm));
        break;
    default:  // a small signed constant (0 is reachable)
        code.push_back(encode_i(int32_t(rng.range(0, 4095)) - 2048, zero, 0, r, kOpImm));
        break;
    }
}

void
emit_alu(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    Reg rd = pool_reg(rng), rs1 = pool_reg(rng), rs2 = pool_reg(rng);
    if (rng.chance(0.5)) {  // OP-IMM
        uint32_t f3 = uint32_t(rng.below(8));
        int32_t imm = int32_t(rng.range(0, 4095)) - 2048;
        if (f3 == 1) imm = int32_t(rng.below(32));                  // slli
        if (f3 == 5) imm = int32_t(rng.below(32)) | (rng.chance(0.5) ? 0x400 : 0);
        code.push_back(encode_i(imm, rs1, f3, rd, kOpImm));
    } else {  // OP
        uint32_t f3 = uint32_t(rng.below(8));
        uint32_t f7 = (f3 == 0 || f3 == 5) && rng.chance(0.5) ? 0x20 : 0;  // sub/sra
        code.push_back(encode_r(f7, rs2, rs1, f3, rd, kOpReg));
    }
}

void
emit_muldiv(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    Reg rd = pool_reg(rng), rs1 = pool_reg(rng), rs2 = pool_reg(rng);
    // Half the time, pin an operand at a spec edge case first.
    if (rng.chance(0.5)) {
        Reg pin = rng.chance(0.5) ? rs1 : rs2;
        switch (rng.below(3)) {
        case 0: code.push_back(encode_i(0, zero, 0, pin, kOpImm)); break;   // 0
        case 1: code.push_back(encode_i(-1, zero, 0, pin, kOpImm)); break;  // -1
        case 2: code.push_back(encode_u(0x80000, pin, kOpLui)); break;      // INT_MIN
        }
    }
    code.push_back(encode_r(1, rs2, rs1, uint32_t(rng.below(8)), rd, kOpReg));
}

void
emit_mem(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    for (uint32_t n = uint32_t(rng.range(2, 4)); n--;) {
        uint32_t f3 = uint32_t(rng.below(3));  // byte / half / word
        uint32_t size = 1u << f3;
        int32_t off = int32_t(rng.below(2040 / size)) * int32_t(size);
        if (rng.chance(0.5)) {
            code.push_back(encode_s(off, pool_reg(rng), kDmemReg, f3));
        } else {
            uint32_t lf3 = f3 < 2 && rng.chance(0.5) ? f3 + 4 : f3;  // lbu/lhu
            code.push_back(encode_i(off, kDmemReg, lf3, pool_reg(rng), kOpLoad));
        }
    }
}

void
emit_mmio(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    for (uint32_t n = uint32_t(rng.range(1, 3)); n--;) {
        switch (rng.below(8)) {
        case 0:
            code.push_back(encode_i(rpu::kRegRecvLow, kIoReg, 2, pool_reg(rng), kOpLoad));
            break;
        case 1:
            code.push_back(encode_i(rpu::kRegRecvHigh, kIoReg, 2, pool_reg(rng), kOpLoad));
            break;
        case 2:
            code.push_back(encode_i(rpu::kRegRxReady, kIoReg, 2, pool_reg(rng), kOpLoad));
            break;
        case 3:
            code.push_back(encode_i(rpu::kRegDebugLow, kIoReg, 2, pool_reg(rng), kOpLoad));
            break;
        case 4:
            code.push_back(encode_s(rpu::kRegDebugLow, pool_reg(rng), kIoReg, 2));
            break;
        case 5:
            code.push_back(encode_s(rpu::kRegDebugHigh, pool_reg(rng), kIoReg, 2));
            break;
        case 6:
            code.push_back(encode_s(rpu::kRegSendLow, pool_reg(rng), kIoReg, 2));
            code.push_back(encode_s(rpu::kRegSendHigh, pool_reg(rng), kIoReg, 2));
            break;
        default:
            code.push_back(encode_s(rpu::kRegRecvRelease, pool_reg(rng), kIoReg, 2));
            break;
        }
    }
}

void
emit_branch(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    static constexpr uint32_t kCond[] = {0, 1, 4, 5, 6, 7};  // beq..bgeu
    uint32_t k = uint32_t(rng.range(1, 4));  // instructions under the branch
    code.push_back(encode_b(int32_t(4 * (k + 1)), pool_reg(rng), pool_reg(rng),
                            kCond[rng.below(6)]));
    // The guarded run stays reachable via fall-through, so the verifier's
    // unreachable-code pass holds on both branch outcomes.
    while (k--) emit_alu(code, rng);
}

void
emit_loop(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    code.push_back(encode_i(int32_t(rng.range(2, 9)), zero, 0, kLoopReg, kOpImm));
    size_t top = code.size();
    for (uint32_t n = uint32_t(rng.range(1, 3)); n--;) emit_alu(code, rng);
    code.push_back(encode_i(-1, kLoopReg, 0, kLoopReg, kOpImm));
    int32_t back = -4 * int32_t(code.size() - top);
    code.push_back(encode_b(back, zero, kLoopReg, 1));  // bne x7, x0, top
}

void
emit_csr(std::vector<uint32_t>& code, sim::Rng& rng) {
    using namespace rv;
    if (rng.chance(0.5)) {
        // Read-only: csrrs rd, csr, x0 on any implemented trap CSR.
        static constexpr uint32_t kReadable[] = {kCsrMstatus, kCsrMtvec, kCsrMepc,
                                                 kCsrMcause};
        code.push_back(encode_i(int32_t(kReadable[rng.below(4)]), zero, 2,
                                pool_reg(rng), kOpSystem));
    } else {
        // Read/modify/write on mepc/mcause (arbitrary values there are
        // inert while nothing traps; mtvec/mstatus writes would arm the
        // interrupt machinery the lockstep deliberately leaves cold).
        uint32_t csr = rng.chance(0.5) ? kCsrMepc : kCsrMcause;
        code.push_back(encode_i(int32_t(csr), pool_reg(rng),
                                uint32_t(rng.range(1, 3)), pool_reg(rng), kOpSystem));
    }
}

std::vector<uint32_t>
generate_image(sim::Rng& rng, const FwOptions& opts) {
    using namespace rv;
    std::vector<uint32_t> code;

    // Prologue: pin the window bases, then initialize every other register
    // (the verifier's uninit pass requires it; the edge constants seed the
    // M-extension corner cases).
    code.push_back(encode_u(int32_t(rpu::kDmemBase >> 12), kDmemReg, kOpLui));
    code.push_back(encode_u(int32_t(rpu::kIoBase >> 12), kIoReg, kOpLui));
    code.push_back(encode_i(0, zero, 0, kLoopReg, kOpImm));
    for (uint32_t r = 1; r < 32; ++r) {
        if (r == kDmemReg || r == kIoReg || r == kLoopReg) continue;
        emit_reg_init(code, rng, Reg(r));
    }

    if (opts.inject_div_bug) {
        // Guarantee one div-by-zero so the synthetic ref-model bug fires.
        code.push_back(encode_i(37, zero, 0, x8, kOpImm));
        code.push_back(encode_i(0, zero, 0, x9, kOpImm));
        code.push_back(encode_r(1, x9, x8, 4, x10, kOpReg));  // div x10, x8, x9
    }

    for (uint32_t b = 0; b < opts.blocks; ++b) {
        switch (rng.below(7)) {
        case 0: emit_alu(code, rng); emit_alu(code, rng); emit_alu(code, rng); break;
        case 1: emit_muldiv(code, rng); break;
        case 2: emit_mem(code, rng); break;
        case 3: emit_mmio(code, rng); break;
        case 4: emit_branch(code, rng); break;
        case 5: emit_loop(code, rng); break;
        default: emit_csr(code, rng); break;
        }
    }

    code.push_back(kEbreak);
    return code;
}

std::string
hex32(uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", v);
    return buf;
}

}  // namespace

const char*
fw_kind_name(FwKind k) {
    switch (k) {
    case FwKind::kPass: return "pass";
    case FwKind::kDiverge: return "diverge";
    case FwKind::kTimeout: return "timeout";
    case FwKind::kInadmissible: return "inadmissible";
    case FwKind::kWcetExceeded: return "wcet-exceeded";
    }
    return "?";
}

FwCase
generate_firmware(uint64_t seed, const FwOptions& opts) {
    // The templates are admissible by construction; the retry loop is a
    // belt-and-braces guard so a generator regression degrades to skipped
    // seeds instead of a wall of kInadmissible verdicts.
    for (uint64_t attempt = 0;; ++attempt) {
        sim::Rng rng(seed ^ (attempt * 0x9e3779b97f4a7c15ULL));
        FwCase c;
        c.seed = seed;
        c.image = generate_image(rng, opts);
        if (attempt >= 8 || verify::verify_image(c.image, {}).ok()) return c;
    }
}

FwVerdict
run_firmware_lockstep(const FwCase& c, const FwOptions& opts) {
    FwVerdict v;

    auto report = verify::verify_image(c.image, {});
    if (!report.ok()) {
        v.kind = FwKind::kInadmissible;
        v.detail = report.summary();
        return v;
    }

    FuzzMem dut_mem(c.image, c.seed);
    FuzzMem ref_mem(c.image, c.seed);
    CoreBus bus(dut_mem);
    rv::Core core("fuzz-dut", bus);
    core.reset(0);
    RefModel ref(ref_mem);
    ref.reset(0);

    auto diverge = [&](const std::string& what) {
        v.kind = FwKind::kDiverge;
        v.detail = what;
        return v;
    };

    while (v.steps < opts.max_steps) {
        if (core.halted() && ref.halted()) break;

        // Advance the core by exactly one retired instruction (or to a
        // halt); the flat 1-cycle bus means a handful of ticks at most.
        uint64_t retired = core.instret();
        uint64_t guard = 0;
        while (!core.halted() && core.instret() == retired) {
            core.tick();
            if (++guard > 1000) {
                v.kind = FwKind::kTimeout;
                v.detail = "core made no progress at pc " + hex32(core.pc());
                return v;
            }
        }

        // Mirror one reference step. The injected synthetic bug corrupts
        // the reference's div-by-zero result (spec: -1) to exercise the
        // divergence path and the minimizer on demand.
        uint32_t ref_pc = ref.pc();
        uint32_t insn = (ref_pc & 3) ? 0 : ref_mem.fetch(ref_pc);
        bool tamper = opts.inject_div_bug && (insn & 0x7f) == 0x33 &&
                      (insn >> 25) == 1 && ((insn >> 12) & 7) == 4 &&
                      ref.reg((insn >> 20) & 31) == 0;
        RefModel::Step rs = ref.step();
        if (tamper && rs == RefModel::Step::kOk) ref.set_reg((insn >> 7) & 31, 0);
        ++v.steps;

        if (core.halted() && core.instret() == retired) {
            // The core stopped without retiring: ebreak/ecall or a trap.
            if (rs == RefModel::Step::kOk)
                return diverge("core stopped at pc " + hex32(core.pc()) +
                               " but reference retired " + hex32(insn));
            bool ref_trap = rs == RefModel::Step::kTrap;
            if (core.faulted() != ref_trap)
                return diverge(std::string("halt-kind mismatch at pc ") +
                               hex32(ref_pc) + ": core " +
                               (core.faulted() ? "trap" : "ebreak") + ", reference " +
                               (ref_trap ? "trap" : "ebreak"));
            break;
        }

        // The core retired one instruction; so must the reference.
        if (rs != RefModel::Step::kOk)
            return diverge("reference stopped at pc " + hex32(ref_pc) +
                           " but core retired and sits at pc " + hex32(core.pc()));
        if (core.pc() != ref.pc())
            return diverge("pc mismatch after " + hex32(insn) + " at " + hex32(ref_pc) +
                           ": core " + hex32(core.pc()) + ", reference " +
                           hex32(ref.pc()));
        for (unsigned r = 0; r < 32; ++r) {
            if (core.reg(Reg(r)) == ref.reg(r)) continue;
            return diverge("x" + std::to_string(r) + " mismatch after " + hex32(insn) +
                           " at " + hex32(ref_pc) + ": core " +
                           hex32(core.reg(Reg(r))) + ", reference " + hex32(ref.reg(r)));
        }
    }

    if (!(core.halted() && ref.halted())) {
        v.kind = FwKind::kTimeout;
        v.detail = "still running after " + std::to_string(v.steps) + " steps";
        return v;
    }

    // Terminal-state audit. Skipped after a matching trap: the core's
    // bad-funct3 load path issues its bus access before trapping, so device
    // state may legitimately differ by one popped value there.
    if (!core.faulted()) {
        if (dut_mem.dmem() != ref_mem.dmem())
            return diverge("DMEM contents differ at halt");
        if (dut_mem.device_digest() != ref_mem.device_digest())
            return diverge("MMIO device digests differ at halt");
        const auto& cc = core.csrs();
        const auto& rc = ref.csrs();
        if (cc.mstatus != rc.mstatus || cc.mtvec != rc.mtvec || cc.mepc != rc.mepc ||
            cc.mcause != rc.mcause)
            return diverge("trap CSRs differ at halt");
    }

    // WCET soundness oracle: a single-root program that ran to completion
    // must retire no more instructions than its certified static bound.
    // Multi-root images are excluded — handler roots make the per-root
    // bounds non-composable into a whole-run bound.
    const verify::Certificate& cert = report.cert;
    if (report.roots.size() == 1 && cert.wcet_bounded &&
        v.steps > cert.wcet_instructions) {
        v.kind = FwKind::kWcetExceeded;
        v.detail = "retired " + std::to_string(v.steps) +
                   " instructions, certified WCET bound is " +
                   std::to_string(cert.wcet_instructions);
        return v;
    }
    return v;
}

FwCase
minimize_firmware(const FwCase& failing, const FwOptions& opts, uint32_t* live_insns) {
    FwCase best = failing;
    const FwKind want = run_firmware_lockstep(best, opts).kind;

    auto live_count = [](const FwCase& c) {
        uint32_t n = 0;
        for (uint32_t w : c.image)
            if (w != kNop && w != kEbreak) ++n;
        return n;
    };

    if (want != FwKind::kPass) {
        // ddmin by nop substitution: layout (and so every branch target)
        // is preserved; a chunk stays nop'd only if the verdict *kind*
        // survives, so minimization cannot drift a divergence into a
        // timeout or an inadmissible image.
        std::vector<size_t> candidates;
        for (size_t i = 0; i < best.image.size(); ++i)
            if (best.image[i] != kNop && best.image[i] != kEbreak)
                candidates.push_back(i);

        size_t chunks = 2;
        while (!candidates.empty()) {
            bool removed_any = false;
            size_t per = (candidates.size() + chunks - 1) / chunks;
            for (size_t c = 0; c * per < candidates.size(); ++c) {
                size_t lo = c * per;
                size_t hi = std::min(lo + per, candidates.size());
                FwCase trial = best;
                for (size_t i = lo; i < hi; ++i) trial.image[candidates[i]] = kNop;
                if (run_firmware_lockstep(trial, opts).kind != want) continue;
                best = trial;
                candidates.erase(candidates.begin() + long(lo),
                                 candidates.begin() + long(hi));
                removed_any = true;
                break;  // chunk boundaries moved; rescan at this granularity
            }
            if (!removed_any) {
                if (chunks >= candidates.size()) break;
                chunks = std::min(chunks * 2, candidates.size());
            }
        }
    }

    if (live_insns) *live_insns = live_count(best);
    return best;
}

}  // namespace rosebud::fuzz
