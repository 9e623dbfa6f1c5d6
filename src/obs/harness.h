/// \file
/// One-call profiling harness: build a named pipeline through
/// build_pipeline (core/pipeline.h, the builder every harness shares),
/// attach the whole observability stack — telemetry/stall attribution,
/// an all-stage flight recorder, firmware PC sampling, optional VCD
/// capture — run seeded traffic, and return every artifact. This is the
/// engine behind `rosebud_cli profile`.

#ifndef ROSEBUD_OBS_HARNESS_H
#define ROSEBUD_OBS_HARNESS_H

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/profile.h"
#include "obs/report.h"

namespace rosebud::obs {

struct ProfileSpec {
    /// The middlebox, its framework configuration and its table seed;
    /// the seed also drives the traffic.
    PipelineSpec build;

    /// Traffic shape (unlimited by default: profiling wants steady state).
    /// Its seed is ignored: run_profile seeds the traffic from build.seed.
    TrafficParams traffic;

    sim::Cycle run_cycles = 50'000;

    // Observability knobs.
    uint64_t epoch_cycles = 2048;
    bool capture_vcd = true;
    /// Packets in the Perfetto trace; the flight recorder's ring holds
    /// this many packets' worth of stage events.
    size_t trace_max_packets = 4096;
};

struct ProfileResult {
    StallReport stalls;
    std::vector<CoreProfile> cores;  ///< one per RPU
    CoreProfile aggregate;           ///< summed across RPUs
    fwlib::Program firmware;         ///< the image the annotation refers to
    std::string vcd;                 ///< "" unless ProfileSpec::capture_vcd
    std::string trace;               ///< Perfetto/Chrome trace JSON
    uint64_t cycles = 0;
    uint64_t rx_frames = 0;  ///< frames delivered to the tester sinks
    uint64_t rx_bytes = 0;
};

/// Build, instrument, run, collect. Fatals on unknown configurations.
ProfileResult run_profile(const ProfileSpec& spec);

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_HARNESS_H
