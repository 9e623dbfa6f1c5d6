/// \file
/// Packet buffer and simulation metadata.
///
/// A Packet carries the frame bytes (FCS excluded, as in the paper's size
/// conventions) plus out-of-band simulation metadata: generator timestamps
/// for latency measurement, the cycle and flow class the MAC admitted it
/// with, the ingress interface, the load balancer's destination
/// assignment, and IDS match results appended by accelerators.

#ifndef ROSEBUD_NET_PACKET_H
#define ROSEBUD_NET_PACKET_H

#include <cstdint>
#include <memory>
#include <vector>

namespace rosebud::net {

/// Per-frame wire overhead in bytes: 4 FCS + 8 preamble/SFD + 12 IFG.
/// Paper packet sizes exclude the FCS, so a size-S packet occupies
/// S + kWireOverhead bytes of line time.
inline constexpr uint32_t kWireOverhead = 24;

/// Interface identifiers used in descriptors (paper Section 4.3): two
/// physical 100G ports, the host (virtual Ethernet / DRAM), and loopback.
enum class Iface : uint8_t {
    kPort0 = 0,
    kPort1 = 1,
    kHost = 2,
    kLoopback = 3,
};

/// A packet's transport class: the rule matcher checks a rule's protocol
/// selector against it, and the health monitor keeps per-class SLO
/// accounting by it. kOther matches neither TCP nor UDP rules.
enum class FlowClass : uint8_t { kTcp = 0, kUdp, kOther };

inline constexpr unsigned kFlowClassCount = unsigned(FlowClass::kOther) + 1;

/// "tcp", "udp" or "other".
const char* flow_class_name(FlowClass c);

/// `Packet::mac_rx_cycle` of a packet that never crossed a MAC (host
/// injections, hand-built test packets).
inline constexpr uint64_t kNoMacRx = ~uint64_t(0);

/// A network packet plus simulation metadata.
struct Packet {
    /// Frame bytes starting at the Ethernet destination MAC; no FCS.
    std::vector<uint8_t> data;

    /// Monotonic id assigned by the generator (debug/tracking).
    uint64_t id = 0;

    /// Generator timestamp in simulated ns (the tester's round trip).
    double tx_ns = 0.0;

    /// Cycle a MAC admitted the packet into its RX FIFO (the LB
    /// reassembler's release, when it held the packet); kNoMacRx if it
    /// never crossed a MAC. Like a MAC's receive timestamp it travels with
    /// the packet, so egress latency needs no per-packet table.
    uint64_t mac_rx_cycle = kNoMacRx;

    /// Ingress interface at the DUT.
    Iface in_iface = Iface::kPort0;

    /// Egress interface chosen by firmware (descriptor "port" field).
    Iface out_iface = Iface::kPort0;

    /// Destination RPU chosen by the load balancer.
    uint8_t dest_rpu = 0;

    /// Packet-memory slot within the destination RPU (LB-assigned).
    uint8_t dest_slot = 0;

    /// Flow hash prepended by the hash-based LB (0 when unused).
    uint32_t lb_hash = 0;

    /// True when the hash LB padded the 4-byte hash in front of the frame.
    bool hash_prepended = false;

    /// Class of the frame as it entered the DUT (MAC admission or host
    /// injection), kept when firmware rewrites or re-frames the bytes.
    FlowClass flow_class = FlowClass::kOther;

    /// IDS rule ids appended to the packet by the matcher accelerator.
    std::vector<uint32_t> matched_rules;

    /// True for packets the trace generator crafted to match a rule
    /// (ground truth for verification, not visible to the DUT).
    bool is_attack = false;

    /// Ground-truth flow sequence number used to verify reordering logic.
    uint64_t flow_seq = 0;

    uint32_t size() const { return uint32_t(data.size()); }

    /// Line occupancy in bytes, including FCS + preamble + IFG.
    uint32_t wire_size() const { return size() + kWireOverhead; }
};

using PacketPtr = std::shared_ptr<Packet>;

/// Classify a frame from its bytes (honors the LB's 4-byte prepended
/// hash). Non-IPv4 and truncated frames are kOther.
FlowClass classify(const Packet& pkt);

/// The stage boundaries a packet crosses on its way through the DUT, in
/// pipeline order. The fabric and the RPUs report each crossing
/// synchronously (System::add_packet_observer); the flight recorder
/// stores them as typed events.
enum class Stage : uint8_t {
    kMacRx,            ///< accepted into a MAC RX FIFO
    kMacRxFifoDrop,    ///< MAC RX FIFO full: congestion loss
    kLbAssign,         ///< LB picked an RPU and slot
    kRpuLinkDispatch,  ///< left the VOQ onto the RPU link
    kRpuRxComplete,    ///< DMA into packet memory done
    kFwSend,           ///< the TX engine took a firmware send descriptor
    kFwDrop,           ///< firmware dropped the slot
    kRpuEgress,        ///< RPU handed the frame to the fabric
    kLoopbackReenter,  ///< loopback frame re-entered the LB
    kHostDeliver,      ///< delivered to the host
    kMacTx,            ///< left on a wire port
};

inline constexpr unsigned kStageCount = unsigned(Stage::kMacTx) + 1;

/// Stable lower-case name of a stage ("mac_rx", "fw_drop", ...).
const char* stage_name(Stage s);

/// Convenience factory for an empty packet of `size` zero bytes.
PacketPtr make_packet(uint32_t size);

/// Theoretical maximum packet rate (packets/s) for `size`-byte packets on a
/// link of `gbps` (the dotted lines in Figures 7 and 8).
double line_rate_pps(uint32_t size, double gbps);

/// Effective data rate (Gbps of frame bytes) when `size`-byte packets fully
/// occupy a `gbps` link; accounts for wire overhead.
double line_rate_goodput_gbps(uint32_t size, double gbps);

}  // namespace rosebud::net

#endif  // ROSEBUD_NET_PACKET_H
