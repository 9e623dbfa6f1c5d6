/// \file
/// The packet-distribution subsystem (paper Section 4.3, Figure 4a).
///
/// One Fabric instance models everything between the wire and the RPUs:
///
///   MAC RX FIFOs -> LB assignment -> stage-1 512-bit switches (one per
///   RPU cluster, per-input virtual output queues, round-robin output
///   arbitration) -> 128-bit per-RPU links (serialized inside the Rpu) ...
///   ... RPU egress queues -> egress cluster switches -> per-destination
///   512-bit serializers -> MAC TX FIFOs -> the wire,
///
/// plus the two low-rate interfaces that share this infrastructure: host
/// DRAM (PCIe virtual Ethernet) and the single-100G loopback channel used
/// for RPU-to-RPU packet messaging (Section 4.4). RX and TX are separate
/// unidirectional switch planes, as in the paper.
///
/// Widths at 250 MHz: MAC line 50 B/cycle (100 Gbps), stage-1 switches
/// 64 B/cycle (512 bit = 128 Gbps), per-RPU links 16 B/cycle (32 Gbps).
/// The per-source issue interval (2 cycles) models the paper's 125 MPPS
/// per-incoming-port distribution limit.

#ifndef ROSEBUD_DIST_FABRIC_H
#define ROSEBUD_DIST_FABRIC_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "lb/load_balancer.h"
#include "net/packet.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/ring.h"
#include "sim/stats.h"

namespace rosebud::dist {

/// Ingress/egress endpoints sharing the distribution infrastructure.
enum Source : unsigned {
    kSrcPort0 = 0,
    kSrcPort1 = 1,
    kSrcHost = 2,
    kSrcLoopback = 3,
    kSourceCount = 4,
};

struct FabricConfig {
    unsigned rpu_count = 16;
    unsigned clusters = 4;
    uint32_t line_bytes_per_cycle = 50;    ///< 100 Gbps MAC at 250 MHz
    uint32_t stage1_bytes_per_cycle = 64;  ///< 512-bit cluster switches
    uint32_t mac_rx_fifo_bytes = 256 * 1024;
    uint32_t mac_tx_fifo_bytes = 64 * 1024;
    unsigned voq_depth = 8;          ///< packets per (source, RPU) virtual queue
    unsigned egress_queue_depth = 4; ///< packets buffered per RPU on egress
    unsigned ingress_pipe_cycles = 86;   ///< fixed pipe: MAC+LB+switch hops
    unsigned egress_pipe_cycles = 85;    ///< fixed pipe on the way out
    uint32_t loopback_header_bytes = 8;  ///< per-packet destination header
    unsigned host_queue_packets = 1024;
    unsigned loopback_queue_packets = 64;
    /// Host-DRAM channel over PCIe Gen3 x16 (paper Section 4.2: host
    /// transfers are packetized with DRAM tags): effective bandwidth and
    /// the number of outstanding-transfer tags.
    double pcie_gbps = 100.0;
    unsigned pcie_tags = 64;
    unsigned pcie_latency_cycles = 250;  ///< ~1 us each way
};

class Fabric : public sim::Component {
 public:
    using SinkFn = std::function<void(net::PacketPtr)>;

    Fabric(sim::Kernel& kernel, sim::Stats& stats, const FabricConfig& config,
           lb::LoadBalancer& lb, std::vector<rpu::Rpu*> rpus);

    /// A frame finished arriving on `port`'s wire. Returns false when the
    /// MAC RX FIFO overflowed (frame dropped and counted). Calls arriving
    /// during another component's tick are staged and integrated at the
    /// clock edge; admission then uses registered credit (the queue's
    /// end-of-previous-cycle occupancy plus what was staged this cycle),
    /// so the outcome is independent of component tick order.
    bool mac_rx(unsigned port, net::PacketPtr pkt);

    /// Host-originated packet (virtual Ethernet over PCIe).
    bool host_inject(net::PacketPtr pkt);

    /// Egress from RPU `rpu` (wired as the Rpu's egress handler).
    /// Returns false to backpressure the RPU's TX engine. Tick-phase
    /// calls are staged like mac_rx (see above).
    bool rpu_egress(uint8_t rpu, net::PacketPtr pkt);

    /// Frames leaving on a physical port arrive here (tester side).
    void set_mac_tx_sink(unsigned port, SinkFn fn);

    /// Packets addressed to the host (port 2).
    void set_host_sink(SinkFn fn);

    void tick() override;

    /// Clock edge: integrate tick-phase arrivals (mac_rx / host_inject /
    /// rpu_egress staged by other components) into the ingress and egress
    /// queues and refresh the registered admission credit. Requested by
    /// every queue mutation; it touches only the RPUs whose egress queue
    /// changed this cycle.
    void commit() override;

    /// The fabric can sleep when every queue, serializer and staged buffer
    /// on both planes is empty and the PCIe byte credit has saturated (the
    /// only time-varying state left). External arrivals (mac_rx /
    /// host_inject / rpu_egress) wake it.
    bool quiescent() const override;

    /// Per-packet stage hook, fired synchronously at every stage boundary
    /// a packet crosses here (System installs its observer fan-out).
    using TraceFn = std::function<void(net::Stage stage, const net::Packet& pkt)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    /// The "Switching" row of Tables 1-2 (both switch planes + FIFOs).
    sim::ResourceFootprint switching_resources() const;

    /// Per-RPU interconnect footprint ("Single Interconnect" row).
    sim::ResourceFootprint interconnect_resources() const;

    const FabricConfig& config() const { return config_; }

 private:
    struct TimedPkt {
        net::PacketPtr pkt;
        sim::Cycle ready = 0;
    };

    struct IngressSource {
        sim::NetId net = 0;  ///< the queue's net (mac_rx.pN, host_q, loopback_q)
        sim::Ring<net::PacketPtr> queue;
        uint64_t queue_bytes = 0;
        unsigned issue_cd = 0;
        // Stage-1 serializer: cut-through, so the packet goes downstream
        // when its transfer starts and only the bandwidth is accounted.
        sim::Cycle busy_until = 0;  ///< first cycle a new transfer may start
        // Completed transfer waiting for VOQ space.
        net::PacketPtr stalled;
        // Registered-credit admission: occupancy snapshot taken at the last
        // clock edge plus packets staged during the current tick. Tick-phase
        // producers admit against these, never against the live queue, so
        // admission cannot observe same-cycle pops (order independence).
        uint64_t admit_bytes = 0;
        size_t admit_count = 0;
        std::vector<net::PacketPtr> staged;
        uint64_t staged_bytes = 0;
    };

    struct EgressDest {
        sim::Cycle busy_until = 0;  ///< cut-through serializer, as ingress
        net::PacketPtr done;        ///< waiting for downstream space
        unsigned rr = 0;
    };

    struct MacTx {
        sim::NetId net = 0;  ///< fabric.mac_tx.pN
        sim::Ring<TimedPkt> fifo;
        uint64_t fifo_bytes = 0;
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        uint32_t line_credit = 0;  ///< fractional-cycle carry (bit-serial line)
        SinkFn sink;
    };

    unsigned cluster_of(uint8_t rpu) const { return rpu / rpus_per_cluster_; }
    sim::Ring<TimedPkt>& voq(uint8_t rpu, unsigned source) {
        return voqs_[rpu * kSourceCount + source];
    }
    // Telemetry taps on the abstract (non-sim::Fifo) links, keyed by the
    // ids declare_netlist kept; one pointer compare when no sink is
    // attached.
    void tel(sim::NetId net, sim::TelemetrySink::NetEvent ev) const {
        if (sim::TelemetrySink* t = kernel().telemetry()) t->net_event(net, ev);
    }
    void tick_ingress_source(unsigned s);
    /// Move `pkt` onto its (dest_rpu, s) VOQ behind the fixed ingress
    /// pipe; false (and `pkt` untouched) when the VOQ is full.
    bool try_push_voq(unsigned s, net::PacketPtr& pkt);
    void tick_rpu_links();
    void tick_egress();
    /// Start the next egress transfer to destination `d`, if a head is ready.
    void pick_egress(unsigned d);
    /// Move `p` to destination `d`'s next stage; false (and `p`
    /// untouched) when that stage has no space.
    bool try_egress_handoff(unsigned d, net::PacketPtr& p);
    /// Recompute RPU `r`'s bit in egress_heads_ from its queue head.
    void refresh_egress_head(unsigned r);
    /// RPU `r`'s egress queue or staging changed this cycle: have
    /// commit() integrate it and refresh its registered credit.
    void note_egress_change(unsigned r);
    void tick_mac_tx();
    void tick_loopback();
    void declare_netlist(sim::Kernel& kernel);

    FabricConfig config_;
    lb::LoadBalancer& lb_;
    std::vector<rpu::Rpu*> rpus_;
    unsigned rpus_per_cluster_;

    // Per-packet counters resolved once at construction (Stats handles are
    // node-stable); the tick path must not do string-keyed map lookups.
    sim::Counter* ctr_rx_frames_[2];
    sim::Counter* ctr_rx_bytes_[2];
    sim::Counter* ctr_rx_drops_[2];
    sim::Counter* ctr_tx_frames_[2];
    sim::Counter* ctr_tx_bytes_[2];
    sim::Counter* ctr_voq_stall_;
    sim::Counter* ctr_host_tx_frames_;
    sim::Counter* ctr_host_rx_frames_;
    sim::Counter* ctr_host_rx_bytes_;
    sim::Counter* ctr_host_tag_stall_;
    sim::Counter* ctr_loopback_frames_;
    sim::Counter* ctr_loopback_bytes_;

    IngressSource sources_[kSourceCount];
    std::vector<sim::Ring<TimedPkt>> voqs_;  ///< [rpu][source]
    std::vector<sim::NetId> voq_nets_;       ///< [rpu][source]
    /// mac_rx's reassembler output, reused so admission allocates nothing.
    std::vector<net::PacketPtr> released_;
    std::vector<unsigned> rpu_rr_;            ///< per-RPU source arbitration
    /// Earliest `ready` cycle over each RPU's VOQ heads (kNever when its
    /// VOQs are empty), and the minimum over all RPUs: the link scan skips
    /// RPUs whose heads are still inside the ingress pipe.
    std::vector<sim::Cycle> voq_head_ready_;
    sim::Cycle voq_next_ready_ = sim::kNever;

    std::vector<sim::Ring<TimedPkt>> egress_queues_;  ///< per RPU
    std::vector<sim::NetId> egress_nets_;             ///< per RPU
    EgressDest egress_[kSourceCount];                 ///< per destination
    /// Per destination, bit r set when RPU r's egress queue head goes
    /// there: the egress scan visits only those RPUs.
    uint32_t egress_heads_[kSourceCount] = {0, 0, 0, 0};
    /// Registered egress credit, mirroring IngressSource's admission state.
    std::vector<std::vector<TimedPkt>> egress_staged_;  ///< per RPU
    std::vector<size_t> egress_committed_;              ///< per RPU
    /// Bit r set when RPU r's egress queue or staging changed this cycle.
    uint32_t egress_touched_ = 0;

    MacTx mac_tx_[2];
    sim::Ring<TimedPkt> host_out_;
    sim::NetId host_out_net_ = 0;
    SinkFn host_sink_;
    double pcie_credit_ = 0.0;      ///< byte credit for the host channel
    unsigned pcie_tags_in_use_ = 0; ///< outstanding DMA transfers

    // Loopback channel drain (single 100G port with per-packet header).
    struct {
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        uint32_t line_credit = 0;
    } loopback_;

    TraceFn trace_;
    void trace(net::Stage stage, const net::Packet& pkt) {
        if (trace_) trace_(stage, pkt);
    }
};

}  // namespace rosebud::dist

#endif  // ROSEBUD_DIST_FABRIC_H
