#include "fuzz/cfg_fuzz.h"

#include "oracle/harness.h"
#include "sim/log.h"
#include "sim/random.h"

namespace rosebud::fuzz {

namespace {

void
set_field(SystemConfig& cfg, CfgField f, uint32_t v) {
    switch (f) {
    case CfgField::kRpuCount: cfg.rpu_count = v; break;
    case CfgField::kStage1Width: cfg.fabric.stage1_bytes_per_cycle = v; break;
    case CfgField::kLinkWidth: cfg.rpu_template.link_bytes_per_cycle = v; break;
    case CfgField::kVoqDepth: cfg.fabric.voq_depth = v; break;
    case CfgField::kEgressDepth: cfg.fabric.egress_queue_depth = v; break;
    case CfgField::kRxFifoDepth: cfg.rpu_template.rx_fifo_depth = v; break;
    case CfgField::kTxCmdDepth: cfg.rpu_template.tx_cmd_depth = v; break;
    case CfgField::kBcastNotifyDepth: cfg.rpu_template.bcast_notify_depth = v; break;
    case CfgField::kBcastTxDepth: cfg.broadcast.tx_fifo_depth = v; break;
    }
}

uint32_t
sample_value(sim::Rng& rng, CfgField f) {
    switch (f) {
    case CfgField::kRpuCount: {
        // Mostly hostile: non-multiples of 4, zero, and beyond the cap.
        static constexpr uint32_t kCounts[] = {0, 1, 2, 3, 4, 6, 8, 12,
                                               16, 20, 24, 30, 32, 36, 40};
        return kCounts[rng.below(sizeof(kCounts) / sizeof(kCounts[0]))];
    }
    case CfgField::kStage1Width: {
        static constexpr uint32_t kWidths[] = {16, 32, 48, 64, 128};
        return kWidths[rng.below(5)];
    }
    case CfgField::kLinkWidth: {
        static constexpr uint32_t kWidths[] = {4, 8, 16, 32};
        return kWidths[rng.below(4)];
    }
    default:
        // Depths: 0 (lint bait) through oversized.
        return uint32_t(rng.below(33));
    }
}

bool
injected_bug_bites(const SystemConfig& cfg) {
    return cfg.fabric.voq_depth < 4 && cfg.rpu_template.tx_cmd_depth < 4 &&
           cfg.fabric.egress_queue_depth < 4;
}

}  // namespace

const char*
cfg_field_name(CfgField f) {
    switch (f) {
    case CfgField::kRpuCount: return "rpu_count";
    case CfgField::kStage1Width: return "stage1_bytes_per_cycle";
    case CfgField::kLinkWidth: return "link_bytes_per_cycle";
    case CfgField::kVoqDepth: return "voq_depth";
    case CfgField::kEgressDepth: return "egress_queue_depth";
    case CfgField::kRxFifoDepth: return "rx_fifo_depth";
    case CfgField::kTxCmdDepth: return "tx_cmd_depth";
    case CfgField::kBcastNotifyDepth: return "bcast_notify_depth";
    case CfgField::kBcastTxDepth: return "bcast_tx_fifo_depth";
    }
    return "?";
}

const char*
cfg_kind_name(CfgKind k) {
    switch (k) {
    case CfgKind::kPass: return "pass";
    case CfgKind::kRejectedConstruct: return "rejected-construct";
    case CfgKind::kRejectedLint: return "rejected-lint";
    case CfgKind::kRejectedRuntime: return "rejected-runtime";
    case CfgKind::kDiverge: return "diverge";
    case CfgKind::kFingerprint: return "fingerprint-mismatch";
    }
    return "?";
}

SystemConfig
apply_deltas(const std::vector<CfgDelta>& deltas) {
    SystemConfig cfg;
    for (const auto& d : deltas) set_field(cfg, d.field, d.value);
    return cfg;
}

CfgCase
generate_config_case(uint64_t seed, const CfgOptions& opts) {
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xcf6);
    CfgCase c;
    c.seed = seed;
    if (opts.inject_cfg_bug) {
        // The three coupled fields the predicate fires on, hidden among
        // benign depth tweaks the minimizer must discard.
        c.deltas.push_back({CfgField::kVoqDepth, uint32_t(rng.range(1, 3))});
        c.deltas.push_back({CfgField::kTxCmdDepth, uint32_t(rng.range(1, 3))});
        c.deltas.push_back({CfgField::kEgressDepth, uint32_t(rng.range(1, 3))});
        static constexpr CfgField kBenign[] = {CfgField::kRxFifoDepth,
                                               CfgField::kBcastNotifyDepth,
                                               CfgField::kBcastTxDepth};
        for (const CfgField f : kBenign) {
            c.deltas.push_back({f, uint32_t(rng.range(4, 32))});
        }
        return c;
    }
    static constexpr CfgField kAll[] = {
        CfgField::kRpuCount,    CfgField::kStage1Width,      CfgField::kLinkWidth,
        CfgField::kVoqDepth,    CfgField::kEgressDepth,      CfgField::kRxFifoDepth,
        CfgField::kTxCmdDepth,  CfgField::kBcastNotifyDepth, CfgField::kBcastTxDepth,
    };
    for (uint64_t n = rng.range(1, 3); n--;) {
        CfgField f = kAll[rng.below(sizeof(kAll) / sizeof(kAll[0]))];
        c.deltas.push_back({f, sample_value(rng, f)});
    }
    return c;
}

CfgVerdict
run_config_case(const CfgCase& c, const CfgOptions& opts) {
    CfgVerdict v;
    SystemConfig cfg = apply_deltas(c.deltas);

    // Gate 1: constructor parameter validation.
    cfg.lint = LintMode::kOff;
    try {
        System sys(cfg);
        // Gate 2: the elaboration-time netlist linter.
        auto violations = sys.lint_check();
        if (!violations.empty()) {
            v.kind = CfgKind::kRejectedLint;
            v.detail = lint::report(violations);
            return v;
        }
    } catch (const sim::FatalError& e) {
        v.kind = CfgKind::kRejectedConstruct;
        v.detail = e.what();
        return v;
    }

    if (opts.inject_cfg_bug && injected_bug_bites(cfg)) {
        v.kind = CfgKind::kDiverge;
        v.detail = "injected config bug predicate";
        return v;
    }

    // Accepted: the config must survive a differential probe and produce
    // a tick-order-independent fingerprint.
    oracle::RunSpec spec;
    spec.pipeline = oracle::Pipeline::kForwarder;
    spec.policy = lb::Policy::kRoundRobin;
    spec.rpu_count = cfg.rpu_count;
    spec.seed = c.seed;
    spec.max_packets = opts.max_packets;
    spec.packet_size = 128;
    spec.load = 1.0;
    spec.run_cycles = opts.run_cycles;
    spec.drain_cycles = 2000;
    auto deltas = c.deltas;
    spec.tweak_config = [deltas](SystemConfig& s) {
        for (const auto& d : deltas) set_field(s, d.field, d.value);
    };

    try {
        oracle::RunResult serial = oracle::run_differential(spec);
        if (opts.with_oracle && !serial.ok) {
            v.kind = CfgKind::kDiverge;
            v.detail = serial.report.substr(0, 2000);
            return v;
        }
        spec.shuffle_tick_order = true;
        oracle::RunResult shuffled = oracle::run_differential(spec);
        if (opts.with_oracle && !shuffled.ok) {
            v.kind = CfgKind::kDiverge;
            v.detail = shuffled.report.substr(0, 2000);
            return v;
        }
        if (serial.fingerprint != shuffled.fingerprint) {
            v.kind = CfgKind::kFingerprint;
            v.detail = "serial/shuffled state fingerprints differ";
            return v;
        }
        v.fingerprint = serial.fingerprint;
    } catch (const sim::FatalError& e) {
        v.kind = CfgKind::kRejectedRuntime;
        v.detail = e.what();
        return v;
    }
    return v;
}

std::vector<CfgDelta>
minimize_config(const CfgCase& c, const CfgOptions& opts) {
    const CfgKind want = run_config_case(c, opts).kind;
    std::vector<CfgDelta> best = c.deltas;
    // Greedy single-field revert to the default, to fixpoint.
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (size_t i = 0; i < best.size(); ++i) {
            CfgCase trial{c.seed, best};
            trial.deltas.erase(trial.deltas.begin() + long(i));
            if (run_config_case(trial, opts).kind != want) continue;
            best = std::move(trial.deltas);
            shrunk = true;
            break;
        }
    }
    return best;
}

}  // namespace rosebud::fuzz
