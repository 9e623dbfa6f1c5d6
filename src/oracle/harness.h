/// \file
/// One-call differential test harness: build a named pipeline through
/// build_pipeline (core/pipeline.h), construct the golden oracle from the
/// same rules, run seeded random traffic with the scoreboard attached,
/// drain, and report. This is the engine behind
/// tests/test_oracle_differential.cc, the `--oracle` CLI mode, and the
/// bench self-check (bench/bench_common.h check_with_oracle()).

#ifndef ROSEBUD_ORACLE_HARNESS_H
#define ROSEBUD_ORACLE_HARNESS_H

#include <functional>
#include <string>

#include "core/system.h"
#include "oracle/oracle.h"
#include "oracle/scoreboard.h"

namespace rosebud::oracle {

/// Parameters of one differential run.
struct RunSpec {
    Pipeline pipeline = Pipeline::kForwarder;
    unsigned rpu_count = 8;
    lb::Policy policy = lb::Policy::kRoundRobin;
    bool hw_reassembler = false;
    uint64_t seed = 1;

    // Traffic shape.
    uint32_t packet_size = 256;
    double load = 0.5;             ///< fraction of line rate
    uint64_t max_packets = 250;    ///< source stops after this many
    double attack_fraction = 0.0;  ///< rule/blacklist-matching packets
    double reorder_fraction = 0.0;
    double udp_fraction = 0.2;
    size_t flow_count = 64;

    // Rule synthesis (seeded from `seed`).
    size_t rule_count = 24;
    size_t blacklist_count = 48;

    // Simulation length: main run, then drain rounds until the
    // scoreboard's outstanding count reaches zero.
    sim::Cycle run_cycles = 60'000;
    unsigned drain_rounds = 30;
    sim::Cycle drain_cycles = 10'000;

    /// Testing hooks. `oracle_blacklist` replaces the firewall oracle's
    /// blacklist (deliberate corruption => divergences). `mid_run` is
    /// called once, halfway through run_cycles (fault injection,
    /// reconfiguration, ...).
    const net::Blacklist* oracle_blacklist = nullptr;
    std::function<void(System&)> mid_run;

    // --- fuzzing hooks (src/fuzz) -------------------------------------------
    //
    /// Rewrites each frame after generation but before it is offered, so
    /// the oracle and the device score the same (possibly malformed)
    /// bytes. Adversarial truncation/corruption lives here.
    std::function<void(net::Packet&)> mutate_frame;
    /// When non-empty, the source replays exactly these raw frames in
    /// order instead of synthesizing traffic (corpus replay, minimized
    /// cases); max_packets is clamped to the list length. mutate_frame
    /// still applies.
    std::vector<std::vector<uint8_t>> replay_frames;
    /// Applied to the derived SystemConfig just before construction
    /// (FIFO-depth / bus-width overrides for the config fuzzer). The
    /// automatic pre-cycle-0 lint gate is downgraded to warn when this is
    /// set — the harness already folds lint_check() into the result, and
    /// the config fuzzer must observe violations, not die on them.
    std::function<void(SystemConfig&)> tweak_config;
    /// Permute the kernel's component tick order under the run seed (the
    /// fingerprint-stability checks run each sample both ways).
    bool shuffle_tick_order = false;
};

/// Outcome of one differential run.
struct RunResult {
    Scoreboard::Counts counts;
    bool ok = false;     ///< zero divergences and everything accounted for
    std::string report;  ///< first divergences, human-readable ("" if ok)
    /// System::state_fingerprint() after the drain — the tick-order
    /// determinism witness the config fuzzer compares across runs.
    uint64_t fingerprint = 0;
    size_t lint_violations = 0;  ///< pre-run netlist lint findings
};

/// Build, run, and score one configuration. Fatals on unsupported
/// pipeline/policy combinations (see DataplaneOracle).
RunResult run_differential(const RunSpec& spec);

}  // namespace rosebud::oracle

#endif  // ROSEBUD_ORACLE_HARNESS_H
