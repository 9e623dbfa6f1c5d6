/// \file
/// Configuration conformance fuzzer: randomized RPU counts, FIFO depths
/// and bus widths, each sample classified against the system's own gates.
///
/// Every sample must land in exactly one bucket:
///
///   * rejected at construction — System's parameter validation throws
///     (e.g. an rpu_count that is not a positive multiple of 4 <= 32);
///   * rejected by the elaboration-time netlist linter (src/lint) — zero
///     FIFO depths, bus widths off the paper's table;
///   * accepted — in which case the configuration must run a clean
///     differential sweep under the golden-model scoreboard AND produce
///     an identical state_fingerprint when re-run with the kernel's
///     component tick order shuffled.
///
/// A configuration that slips past both gates and then diverges (or whose
/// fingerprint depends on tick order) is the bug class this fuzzer hunts:
/// a config-dependent race or an unvalidated parameter.

#ifndef ROSEBUD_FUZZ_CFG_FUZZ_H
#define ROSEBUD_FUZZ_CFG_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"

namespace rosebud::fuzz {

/// A fuzzable configuration knob.
enum class CfgField : uint8_t {
    kRpuCount,          ///< SystemConfig::rpu_count (invalid values included)
    kStage1Width,       ///< fabric.stage1_bytes_per_cycle (paper: 64)
    kLinkWidth,         ///< rpu_template.link_bytes_per_cycle (paper: 16)
    kVoqDepth,          ///< fabric.voq_depth
    kEgressDepth,       ///< fabric.egress_queue_depth
    kRxFifoDepth,       ///< rpu_template.rx_fifo_depth
    kTxCmdDepth,        ///< rpu_template.tx_cmd_depth
    kBcastNotifyDepth,  ///< rpu_template.bcast_notify_depth
    kBcastTxDepth,      ///< broadcast.tx_fifo_depth
};

const char* cfg_field_name(CfgField f);

struct CfgDelta {
    CfgField field = CfgField::kRpuCount;
    uint32_t value = 0;
};

/// One sample: the default SystemConfig plus these field overrides.
struct CfgCase {
    uint64_t seed = 0;
    std::vector<CfgDelta> deltas;
};

struct CfgOptions {
    uint64_t max_packets = 20;      ///< traffic per differential probe
    sim::Cycle run_cycles = 6000;   ///< probe length
    bool with_oracle = true;        ///< false: fingerprint-only probe (fast)
    /// Synthetic config bug for the minimizer demo: a sample whose applied
    /// config has voq_depth < 4 AND tx_cmd_depth < 4 AND egress depth < 4
    /// is declared divergent without running (three coupled fields the
    /// greedy minimizer must isolate).
    bool inject_cfg_bug = false;
};

enum class CfgKind : uint8_t {
    kPass,
    kRejectedConstruct,  ///< System constructor threw
    kRejectedLint,       ///< netlist linter flagged it
    kRejectedRuntime,    ///< a runtime fatal during the probe
    kDiverge,            ///< scoreboard divergence on an accepted config
    kFingerprint,        ///< shuffled-tick-order fingerprint mismatch
};

const char* cfg_kind_name(CfgKind k);

struct CfgVerdict {
    CfgKind kind = CfgKind::kPass;
    std::string detail;
    uint64_t fingerprint = 0;  ///< serial-order fingerprint (pass buckets)

    bool ok() const {
        return kind == CfgKind::kPass || kind == CfgKind::kRejectedConstruct ||
               kind == CfgKind::kRejectedLint;
    }
};

/// Apply the deltas on top of a default SystemConfig.
SystemConfig apply_deltas(const std::vector<CfgDelta>& deltas);

/// Derive one sample from `seed` (deterministic).
CfgCase generate_config_case(uint64_t seed, const CfgOptions& opts = {});

/// Classify one sample (see the bucket list in the file comment).
CfgVerdict run_config_case(const CfgCase& c, const CfgOptions& opts = {});

/// Greedy field minimizer: drop deltas while the verdict kind is
/// preserved. Returns the reduced delta list.
std::vector<CfgDelta> minimize_config(const CfgCase& c, const CfgOptions& opts = {});

}  // namespace rosebud::fuzz

#endif  // ROSEBUD_FUZZ_CFG_FUZZ_H
