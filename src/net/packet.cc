#include "net/packet.h"

#include "net/headers.h"

namespace rosebud::net {

PacketPtr
make_packet(uint32_t size) {
    auto p = std::make_shared<Packet>();
    p->data.assign(size, 0);
    return p;
}

const char*
flow_class_name(FlowClass c) {
    switch (c) {
    case FlowClass::kTcp: return "tcp";
    case FlowClass::kUdp: return "udp";
    case FlowClass::kOther: return "other";
    }
    return "?";
}

FlowClass
classify(const Packet& pkt) {
    const auto& d = pkt.data;
    size_t off = pkt.hash_prepended ? 4 : 0;
    // Ethernet(14) + IPv4 header through the protocol byte at offset 23.
    if (d.size() < off + 24) return FlowClass::kOther;
    if (d[off + 12] != 0x08 || d[off + 13] != 0x00) return FlowClass::kOther;
    uint8_t proto = d[off + 23];
    if (proto == kIpProtoTcp) return FlowClass::kTcp;
    if (proto == kIpProtoUdp) return FlowClass::kUdp;
    return FlowClass::kOther;
}

const char*
stage_name(Stage s) {
    switch (s) {
    case Stage::kMacRx: return "mac_rx";
    case Stage::kMacRxFifoDrop: return "mac_rx_fifo_drop";
    case Stage::kLbAssign: return "lb_assign";
    case Stage::kRpuLinkDispatch: return "rpu_link_dispatch";
    case Stage::kRpuRxComplete: return "rpu_rx_complete";
    case Stage::kFwSend: return "fw_send";
    case Stage::kFwDrop: return "fw_drop";
    case Stage::kRpuEgress: return "rpu_egress";
    case Stage::kLoopbackReenter: return "loopback_reenter";
    case Stage::kHostDeliver: return "host_deliver";
    case Stage::kMacTx: return "mac_tx";
    }
    return "?";
}

double
line_rate_pps(uint32_t size, double gbps) {
    return gbps * 1e9 / (double(size + kWireOverhead) * 8.0);
}

double
line_rate_goodput_gbps(uint32_t size, double gbps) {
    return line_rate_pps(size, gbps) * double(size) * 8.0 / 1e9;
}

}  // namespace rosebud::net
