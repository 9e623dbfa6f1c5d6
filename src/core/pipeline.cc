#include "core/pipeline.h"

#include "accel/firewall.h"
#include "accel/nat.h"
#include "accel/pigasus.h"
#include "net/tracegen.h"
#include "sim/log.h"

namespace rosebud {

const char*
pipeline_name(Pipeline p) {
    switch (p) {
    case Pipeline::kForwarder: return "forwarder";
    case Pipeline::kFirewall: return "firewall";
    case Pipeline::kPigasusHwReorder: return "ids-hw";
    case Pipeline::kPigasusSwReorder: return "ids-sw";
    case Pipeline::kNat: return "nat";
    }
    return "?";
}

Pipeline
parse_pipeline(const std::string& name) {
    if (name == "forwarder") return Pipeline::kForwarder;
    if (name == "firewall") return Pipeline::kFirewall;
    if (name == "ids-hw" || name == "pigasus-hw") return Pipeline::kPigasusHwReorder;
    if (name == "ids-sw" || name == "pigasus-sw") return Pipeline::kPigasusSwReorder;
    if (name == "nat") return Pipeline::kNat;
    sim::fatal("unknown pipeline: " + name +
               " (want forwarder|firewall|ids-hw|ids-sw|nat)");
    return Pipeline::kForwarder;
}

PipelineFixture
build_pipeline(const PipelineSpec& spec) {
    PipelineFixture fx;
    fx.sys = std::make_unique<System>(spec.system);
    System& sys = *fx.sys;

    sim::Rng rng(spec.seed);
    switch (spec.pipeline) {
    case Pipeline::kForwarder:
        fx.firmware =
            fwlib::forwarder({}, spec.system.lb_policy == lb::Policy::kHash);
        break;
    case Pipeline::kFirewall:
        fx.blacklist = std::make_unique<net::Blacklist>(
            net::Blacklist::synthesize(spec.blacklist_count, rng));
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::FirewallMatcher>(*fx.blacklist); });
        fx.firmware = fwlib::firewall();
        break;
    case Pipeline::kPigasusHwReorder:
    case Pipeline::kPigasusSwReorder:
        fx.rules = std::make_unique<net::IdsRuleSet>(
            net::IdsRuleSet::synthesize(spec.rule_count, rng));
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::PigasusMatcher>(*fx.rules); });
        fx.firmware = spec.pipeline == Pipeline::kPigasusHwReorder
                          ? fwlib::pigasus_hw_reorder()
                          : fwlib::pigasus_sw_reorder();
        break;
    case Pipeline::kNat:
        // A blacklist steers the attack fraction to external source IPs,
        // exercising the engine's pass-through path alongside outbound
        // translation (the NAT itself does not consult it).
        fx.blacklist = std::make_unique<net::Blacklist>(
            net::Blacklist::synthesize(spec.blacklist_count, rng));
        sys.attach_accelerators([] {
            return std::make_unique<accel::NatEngine>(accel::NatEngine::Params{});
        });
        fx.firmware = fwlib::nat(fwlib::SlotParams{16, 16 * 1024},
                                 spec.system.lb_policy == lb::Policy::kHash);
        break;
    }

    sys.host().load_firmware_all(fx.firmware.image, fx.firmware.entry);
    sys.host().boot_all();
    return fx;
}

void
add_traffic(PipelineFixture& fx, const TrafficParams& traffic) {
    net::TrafficSpec tspec;
    tspec.packet_size = traffic.packet_size;
    tspec.attack_fraction = traffic.attack_fraction;
    tspec.flow_count = traffic.flow_count;
    tspec.udp_fraction = traffic.udp_fraction;
    tspec.seed = traffic.seed * 2654435761u + 1;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, fx.rules.get(),
                                                     fx.blacklist.get());

    dist::TrafficSource::Config src;
    src.port = 0;
    src.load = traffic.load;
    src.max_packets = traffic.max_packets;
    fx.system().add_source(src, [gen] { return gen->next(); });
}

}  // namespace rosebud
