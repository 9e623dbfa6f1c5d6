/// \file
/// Static firmware verifier for RPU images (eBPF-verifier style).
///
/// The paper's hardware memory protection and debug subsystem catch a
/// misbehaving RPU at *runtime*; this module moves the common failure
/// classes to *load time*. Given an assembled RV32IM image it decodes every
/// reachable instruction, builds a basic-block control-flow graph, and runs
/// a small abstract interpreter (an interval domain over the 31 general
/// registers plus a must-initialized bit) to prove the absence of:
///
///   * undecodable instructions on any reachable path;
///   * jump/branch targets outside the image or off instruction boundaries;
///   * loads/stores provably outside the RPU memory map (DMEM, PMEM slot
///     windows, AMEM, interconnect/accelerator MMIO, broadcast region);
///   * accesses to reserved interconnect MMIO offsets or reserved CSRs;
///   * reads of registers that are never written on some path;
///   * code that falls off the end of the image;
///   * busy loops with no exit edge and no observable side effect.
///
/// The analysis is *sound for rejection*: it only reports a memory error
/// when every concrete execution reaching the instruction would be out of
/// bounds, so correct firmware with data-dependent addressing (descriptor
/// slot indices, hash-table probes) is never rejected. Firmware that
/// installs an interrupt vector gets the handler analyzed as an extra CFG
/// root, and the infinite-loop check is relaxed (a watchdog can rescue any
/// loop once interrupts are live — exactly the paper's debug story).
///
/// Used as a load-time gate by host::HostContext (hard error by default,
/// warn-only for experiments) and by the `verify` rosebud_cli experiment.

#ifndef ROSEBUD_VERIFY_VERIFIER_H
#define ROSEBUD_VERIFY_VERIFIER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rpu/descriptor.h"

namespace rosebud::verify {

/// Check categories, one per verifier pass.
enum class Check {
    kDecode,       ///< reachable instruction does not decode as RV32IM
    kCfg,          ///< bad jump/branch target or fall-off-the-end
    kMemory,       ///< load/store provably outside the RPU memory map
    kMmio,         ///< access to a reserved interconnect MMIO offset
    kCsr,          ///< access to a CSR the core does not implement
    kUninit,       ///< read of a register never written on some path
    kUnreachable,  ///< code that no path from any root reaches
    kLoop,         ///< busy loop with no exit edge and no side effect
    kSlots,        ///< slot provisioning does not fit packet memory
};

enum class Severity { kError, kWarning };

const char* check_name(Check c);

struct Diagnostic {
    Check check = Check::kDecode;
    Severity severity = Severity::kError;
    uint32_t pc = 0;  ///< byte address of the offending instruction/block
    std::string message;
};

/// One CFG node: a maximal straight-line run of reachable instructions.
struct BasicBlock {
    uint32_t first = 0;           ///< address of the first instruction
    uint32_t last = 0;            ///< address of the last instruction
    std::vector<uint32_t> succs;  ///< successor block start addresses
};

/// Expected packet-slot provisioning (mirrors fwlib::SlotParams); when
/// `count` is non-zero the verifier checks the window fits packet memory.
struct SlotWindow {
    uint32_t count = 0;
    uint32_t size = 0;
    uint32_t base = rpu::kPmemBase;
};

struct Options {
    uint32_t entry = 0;  ///< boot pc of the image
    SlotWindow slots{};  ///< optional slot-provisioning cross-check
};

// --- line-rate certificate ---------------------------------------------------
//
// Beyond the safety checks above, the verifier emits a *certificate* of
// quantitative facts about the image. Where the safety checks are sound for
// rejection (a diagnostic means every concrete execution misbehaves), the
// certificate is sound in the opposite direction: every number is an upper
// bound over all concrete executions, and every proof flag is only set when
// the property holds on all executions. Two consumers read these facts:
// the WCET report (`rosebud_cli verify --wcet --json`, checked by the
// `cli_verify_wcet` ctest) and the firmware fuzzer's `wcet-exceeded`
// verdict; obs::wcet_cross_check holds the bound against measured
// `instret`.

/// Inferred trip bound for one CFG cycle (a nontrivial SCC).
struct LoopBound {
    uint32_t header = 0;    ///< entry block of the loop (lowest address)
    bool bounded = false;   ///< trip count proven finite
    uint64_t max_trips = 0; ///< iteration bound when `bounded`
    bool observable = false;///< touches MMIO/broadcast (service/poll loop)
    uint32_t blocks = 0;    ///< SCC size in basic blocks
};

/// Worst case for one CFG root (boot entry or interrupt handler), measured
/// per *handler activation*: an unbounded loop that polls MMIO (the main
/// packet-service loop, accelerator-done polls) contributes one traversal —
/// the per-packet handler path — while an unbounded loop with no observable
/// side effect poisons the bound to unbounded.
struct RootWcet {
    uint32_t root = 0;
    bool bounded = false;      ///< finite per-activation WCET
    uint64_t instructions = 0; ///< worst-case retired instructions
    uint64_t cycles = 0;       ///< worst-case cycles (worst memory latency)
};

/// Tightest byte range a reachable store may touch inside one region.
struct RegionWrites {
    std::string region;
    uint32_t lo = 0;
    uint32_t hi = 0;  ///< inclusive
};

/// Static cost of one basic block (for the DOT dump and timing debug).
struct BlockCost {
    uint32_t instructions = 0;
    uint32_t cycles = 0;
    bool critical = false;  ///< on some root's worst-case path
};

struct Certificate {
    std::vector<LoopBound> loops;  ///< every CFG cycle, header order
    std::vector<RootWcet> roots;   ///< per-root worst cases

    bool wcet_bounded = false;       ///< every root has a finite WCET
    uint64_t wcet_instructions = 0;  ///< max over roots
    uint64_t wcet_cycles = 0;        ///< max over roots

    bool stack_bounded = false;  ///< sp writes span a finite range (or none)
    uint32_t stack_bytes = 0;    ///< span of all values ever written to sp

    /// Proof that no reachable store can land in the text segment (IMEM).
    /// Sound for *acceptance*: granted only when every reachable store's
    /// address interval is finite and disjoint from IMEM — the exact fact
    /// that lets a JIT/DBT elide code-invalidation checks.
    bool text_write_separation = false;
    uint32_t unproven_stores = 0;  ///< stores whose target could not be bounded

    std::vector<RegionWrites> writes;         ///< store footprint per region
    std::map<uint32_t, BlockCost> block_costs;///< block first-addr -> cost
};

struct Report {
    std::vector<Diagnostic> diags;
    std::vector<BasicBlock> blocks;  ///< reachable blocks, address order
    std::vector<uint32_t> roots;     ///< entry + discovered interrupt vectors
    uint32_t instructions = 0;       ///< reachable decoded instructions
    bool interrupts_possible = false;
    Certificate cert;                ///< line-rate certificate (always computed)

    bool ok() const { return errors() == 0; }
    size_t errors() const;
    size_t warnings() const;
    bool check_passed(Check c) const;

    /// One line per diagnostic: "error[memory] pc=0x14: ...".
    std::string summary() const;
};

/// Verify an assembled image (words at byte address 0, as loaded into IMEM).
Report verify_image(const std::vector<uint32_t>& image, const Options& opts = {});

/// Render the CFG as Graphviz DOT, one record node per basic block with
/// the disassembly of its instructions, annotated with the certificate's
/// per-block cost and inferred loop bounds; blocks on the worst-case
/// (WCET-critical) path are highlighted.
std::string cfg_dot(const std::vector<uint32_t>& image, const Report& report,
                    const std::string& name = "firmware");

/// JSON rendering of the certificate (plus check verdicts) for one image,
/// as uploaded by the CI `wcet-report` step and `rosebud_cli verify --wcet`.
std::string certificate_json(const Report& report, const std::string& name);

}  // namespace rosebud::verify

#endif  // ROSEBUD_VERIFY_VERIFIER_H
