#include "baseline/snort_model.h"

#include <algorithm>

#include "net/headers.h"

namespace rosebud::baseline {

SnortModel::SnortModel(const net::IdsRuleSet& rules) : SnortModel(rules, Config{}) {}

SnortModel::SnortModel(const net::IdsRuleSet& rules, Config config)
    : matcher_(rules.matcher()), config_(config) {}

bool
SnortModel::packet_matches(const net::Packet& pkt) const {
    auto parsed = net::parse_packet(pkt);
    if (!parsed || parsed->payload_offset == 0) return false;
    net::FlowClass proto = net::FlowClass::kOther;
    uint16_t dst = 0;
    if (parsed->has_tcp) {
        proto = net::FlowClass::kTcp;
        dst = parsed->tcp.dst_port;
    } else if (parsed->has_udp) {
        proto = net::FlowClass::kUdp;
        dst = parsed->udp.dst_port;
    }
    std::vector<uint32_t> sids;
    std::vector<net::PatternMatch> hits;
    matcher_->match(pkt.data.data() + parsed->payload_offset, parsed->payload_len, proto, dst,
                    sids, hits);
    return !sids.empty();
}

double
SnortModel::mpps_for_size(uint32_t frame_size) const {
    // The ramdisk experiment (Section 7.1.3) removes the NIC path:
    double overhead = config_.use_afpacket
                          ? config_.per_packet_us
                          : config_.per_packet_us - config_.afpacket_share_us;
    double t_us = overhead + double(frame_size) * config_.scan_ns_per_byte / 1e3;
    return double(config_.cores) / t_us;  // cores / us => MPPS
}

SnortModel::Result
SnortModel::run(net::TraceGenerator& gen, size_t packets) const {
    Result r;
    uint32_t size = gen.spec().packet_size;
    for (size_t i = 0; i < packets; ++i) {
        net::PacketPtr p = gen.next();
        if (packet_matches(*p)) ++r.matched;
        ++r.packets;
    }
    r.mpps = mpps_for_size(size);
    double offered = net::line_rate_pps(size, 200.0) / 1e6;
    r.mpps = std::min(r.mpps, offered);
    r.gbps = r.mpps * 1e6 * double(size) * 8.0 / 1e9;
    return r;
}

double
pigasus_original_gbps(uint32_t frame_size) {
    return net::line_rate_goodput_gbps(frame_size, 100.0);
}

}  // namespace rosebud::baseline
