/// \file
/// Firmware PC-sampling profiler reporting — collects the per-PC cycle
/// histograms kept by rv::Core (see rv/core.h, set_profile) and renders
/// them `perf annotate`-style over the disassembled firmware image: every
/// instruction line carries its cycle count and share, hot lines are
/// flagged. Works on single cores and on the aggregate across all RPUs
/// running the same image.

#ifndef ROSEBUD_OBS_PROFILE_H
#define ROSEBUD_OBS_PROFILE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "verify/verifier.h"

namespace rosebud {
class System;
namespace rv {
class Core;
}
}  // namespace rosebud

namespace rosebud::obs {

/// One core's (or an aggregate's) PC-cycle histogram.
struct CoreProfile {
    std::string name;
    uint64_t cycles = 0;  ///< == sum of pc_cycles values
    uint64_t instret = 0;  ///< retired instructions (for the WCET cross-check)
    bool halted = false;   ///< core ran to completion (ebreak/stop)
    std::map<uint32_t, uint64_t> pc_cycles;
};

/// Snapshot one core's histogram (empty if profiling was never enabled).
CoreProfile collect_profile(const rv::Core& core);

/// Snapshot every RPU core in the system.
std::vector<CoreProfile> collect_profiles(System& sys);

/// Sum per-core histograms into one profile named `name` (the cores run
/// identical firmware, so PCs are directly comparable).
CoreProfile aggregate_profiles(const std::vector<CoreProfile>& profiles,
                               const std::string& name = "all-rpus");

/// `perf annotate`-style listing: each image word disassembled with its
/// cycle count and share; lines at or above `hot_frac` of total cycles are
/// marked with '*'. PCs outside the image (e.g. trap handlers placed
/// elsewhere) are appended as raw address lines.
std::string annotate(const std::vector<uint32_t>& image, const CoreProfile& profile,
                     uint32_t base = 0, double hot_frac = 0.10);

/// JSON rendering of a profile (pc -> cycles, plus totals).
std::string profile_json(const CoreProfile& profile);

/// One core's verdict from the static-vs-observed WCET cross-check.
struct WcetCrossCheck {
    std::string core;
    uint64_t observed = 0;  ///< retired instructions the core executed
    uint64_t bound = 0;     ///< certified static bound
    bool applicable = false;  ///< core ran to completion and the bound is finite
    bool ok = true;           ///< applicable implies observed <= bound
};

/// Validate the line-rate certificate against observed execution (the
/// FireSim-style calibration loop): a core that ran to completion must have
/// retired no more instructions than the certified single-activation WCET
/// bound. Only applicable to halted cores — a live service loop activates
/// per packet and legitimately exceeds any single-activation bound. A
/// failed check means the certifier is *unsound* for this image; the fuzz
/// campaign enforces the same oracle over random programs.
std::vector<WcetCrossCheck> wcet_cross_check(const std::vector<CoreProfile>& profiles,
                                             const verify::Certificate& cert);

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_PROFILE_H
