#include "net/packet.h"

namespace rosebud::net {

PacketPtr
make_packet(uint32_t size) {
    auto p = std::make_shared<Packet>();
    p->data.assign(size, 0);
    return p;
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
