/// \file
/// The pipeline builder: the one place a named middlebox is composed.
///
/// In Rosebud a middlebox is firmware plus an accelerator placed into the
/// fixed RPU/LB framework (paper Sections 3-4). build_pipeline() is the
/// only code that maps a pipeline name to its firmware image, its
/// accelerator factory and the seeded synthesis of its rule table or
/// blacklist. The paper experiments (core/experiments.h), the oracle
/// differential, the profile and health harnesses, the benches and
/// the CLI all build through it, so a verification run drives exactly the
/// System configuration that gets measured.

#ifndef ROSEBUD_CORE_PIPELINE_H
#define ROSEBUD_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/rules.h"

namespace rosebud {

/// The end-to-end dataplanes: LB policy + firmware + accelerator as wired
/// by the paper's case studies.
enum class Pipeline {
    kForwarder,         ///< fwlib::forwarder, no accelerator
    kFirewall,          ///< fwlib::firewall + accel::FirewallMatcher
    kPigasusHwReorder,  ///< fwlib::pigasus_hw_reorder + accel::PigasusMatcher
    kPigasusSwReorder,  ///< fwlib::pigasus_sw_reorder + matcher, hash LB
    kNat,               ///< fwlib::nat + accel::NatEngine
};

/// The pipeline's name as the CLI and the fuzz corpus spell it
/// ("forwarder", "firewall", "ids-hw", "ids-sw", "nat").
const char* pipeline_name(Pipeline p);

/// Inverse of pipeline_name (also accepts "pigasus-hw"/"pigasus-sw");
/// fatals on unknown names.
Pipeline parse_pipeline(const std::string& name);

/// Which middlebox, in which framework configuration, with which tables.
struct PipelineSpec {
    Pipeline pipeline = Pipeline::kForwarder;
    /// Used as given, tuning included. The HW-reorder IDS firmware expects
    /// `hw_reassembler` (the paper's Pigasus configuration); the builder
    /// does not force it, because the oracle sweep runs ids-hw both ways.
    SystemConfig system{.rpu_count = 8};
    uint64_t seed = 1;  ///< seeds the rule table / blacklist synthesis
    size_t rule_count = 24;
    size_t blacklist_count = 48;
};

/// A built-and-booted System plus the synthesized tables the traffic
/// generator and the oracle need. The fixture owns the tables behind
/// stable pointers (accelerators and TraceGenerator keep references into
/// them), so it is safe to move.
struct PipelineFixture {
    std::unique_ptr<System> sys;
    fwlib::Program firmware;
    std::unique_ptr<net::IdsRuleSet> rules;      ///< null unless IDS pipeline
    std::unique_ptr<net::Blacklist> blacklist;   ///< null unless firewall/NAT

    System& system() { return *sys; }
};

/// Build the System for a named pipeline: accelerators attached, firmware
/// loaded, cores booted, no cycle run yet. Fatals on bad configurations.
PipelineFixture build_pipeline(const PipelineSpec& spec);

/// Traffic-shape knobs for add_traffic().
struct TrafficParams {
    uint32_t packet_size = 256;
    double load = 0.7;
    uint64_t max_packets = 0;  ///< 0 = unlimited
    double attack_fraction = 0.1;
    double udp_fraction = 0.2;
    size_t flow_count = 64;
    uint64_t seed = 1;
};

/// Wire a seeded TraceGenerator-backed TrafficSource into port 0.
void add_traffic(PipelineFixture& fx, const TrafficParams& traffic);

}  // namespace rosebud

#endif  // ROSEBUD_CORE_PIPELINE_H
