#include "dist/fabric.h"

#include <algorithm>
#include <bit>

#include "sim/log.h"

namespace rosebud::dist {

namespace {

/// Cycles between two LB issues from one source: at 250 MHz, the paper's
/// 125 MPPS per-port distribution limit.
constexpr unsigned kIssueIntervalCycles = 2;

/// 100 Gbps MAC at 250 MHz.
constexpr uint32_t kLineBytesPerCycle = 50;
/// MAC TX FIFO per port.
constexpr uint32_t kMacTxFifoBytes = 64 * 1024;
/// Fixed pipe: MAC+LB+switch hops.
constexpr unsigned kIngressPipeCycles = 86;
/// Fixed pipe on the way out.
constexpr unsigned kEgressPipeCycles = 85;
/// Per-packet destination header on the loopback channel.
constexpr uint32_t kLoopbackHeaderBytes = 8;
/// Packets the loopback queue holds.
constexpr unsigned kLoopbackQueuePackets = 64;
/// Host-DRAM transfer latency over PCIe: ~1 us each way.
constexpr unsigned kPcieLatencyCycles = 250;

uint32_t
div_ceil(uint32_t a, uint32_t b) {
    return (a + b - 1) / b;
}

/// Cycles a bit-serial 100G line takes to send `wire` bytes. `carry` is
/// the fractional-cycle remainder of the frames before it, so the
/// long-run rate is exactly kLineBytesPerCycle.
uint32_t
line_cycles(uint32_t wire, uint32_t& carry) {
    const uint32_t need = wire > carry ? wire - carry : 0;
    const uint32_t cycles = std::max(1u, div_ceil(need, kLineBytesPerCycle));
    carry = std::min(cycles * kLineBytesPerCycle + carry - wire, kLineBytesPerCycle);
    return cycles;
}

}  // namespace

Fabric::Fabric(sim::Kernel& kernel, sim::Stats& stats, const FabricConfig& config,
               lb::LoadBalancer& lb, std::vector<rpu::Rpu*> rpus)
    : sim::Component(kernel, "fabric"),
      config_(config),
      lb_(lb),
      rpus_(std::move(rpus)),
      voqs_(rpu_count() * kSourceCount),
      voq_nets_(rpu_count() * kSourceCount),
      rpu_rr_(rpu_count(), 0),
      voq_head_ready_(rpu_count(), sim::kNever),
      egress_queues_(rpu_count()),
      egress_nets_(rpu_count()),
      egress_staged_(rpu_count()),
      egress_committed_(rpu_count(), 0) {
    for (unsigned p = 0; p < 2; ++p) {
        std::string pn = "port" + std::to_string(p);
        ctr_rx_frames_[p] = &stats.counter(pn + ".rx_frames");
        ctr_rx_bytes_[p] = &stats.counter(pn + ".rx_bytes");
        ctr_rx_drops_[p] = &stats.counter(pn + ".rx_fifo_drops");
        ctr_tx_frames_[p] = &stats.counter(pn + ".tx_frames");
        ctr_tx_bytes_[p] = &stats.counter(pn + ".tx_bytes");
    }
    ctr_voq_stall_ = &stats.counter("fabric.voq_stall");
    ctr_host_tx_frames_ = &stats.counter("host.tx_frames");
    ctr_host_rx_frames_ = &stats.counter("host.rx_frames");
    ctr_host_rx_bytes_ = &stats.counter("host.rx_bytes");
    ctr_host_tag_stall_ = &stats.counter("host.tag_stall");
    ctr_loopback_frames_ = &stats.counter("loopback.frames");
    ctr_loopback_bytes_ = &stats.counter("loopback.bytes");
    declare_netlist(kernel);
    // Occupancy probes on the abstract (non-sim::Fifo) queues, named after
    // their netlist nets: the telemetry's waveforms, the health layer's
    // backlog census and the metrics gauges read committed occupancy here.
    auto probe = [&](sim::NetId net, size_t capacity, std::function<size_t()> fn) {
        kernel.register_occupancy_probe(kernel.nets()[net].name, net, capacity, this,
                                        std::move(fn));
    };
    for (unsigned s = 0; s < kSourceCount; ++s) {
        probe(sources_[s].net, 0, [this, s] { return sources_[s].queue.size(); });
    }
    for (unsigned r = 0; r < rpu_count(); ++r) {
        for (unsigned s = 0; s < kSourceCount; ++s) {
            const unsigned v = r * kSourceCount + s;
            probe(voq_nets_[v], config_.voq_depth, [this, v] { return voqs_[v].size(); });
        }
        probe(egress_nets_[r], config_.egress_queue_depth,
              [this, r] { return egress_queues_[r].size(); });
    }
    for (unsigned p = 0; p < 2; ++p) {
        probe(mac_tx_[p].net, 0, [this, p] { return mac_tx_[p].fifo.size(); });
    }
    probe(host_out_net_, config_.pcie_tags, [this] { return size_t(pcie_tags_in_use_); });
}

void
Fabric::declare_netlist(sim::Kernel& kernel) {
    using sim::NetRecord;
    using sim::PortRecord;
    const unsigned kSw = 512;  // stage-1 switch datapath (64 B/cycle)

    // MAC-side FIFOs: depth in 512-bit words. The wire side is external.
    // mac_rx admission works on a committed+staged snapshot (see
    // IngressSource: admission cannot observe same-cycle pops), so its
    // credit return is registered and a pop wakes the writing source.
    // mac_tx drains self-paced onto the line (the sink never returns
    // credit), so it declares skid credit: only the reader wakes.
    for (unsigned p = 0; p < 2; ++p) {
        std::string rx = "fabric.mac_rx.p" + std::to_string(p);
        sources_[p].net = kernel.declare_net(
            {rx, NetRecord::kFifo, kSw, config_.mac_rx_fifo_bytes / 64,
             sim::kNetExternalSource, NetRecord::kCreditRegistered});
        kernel.declare_port({name(), rx, PortRecord::kRead, kSw, 0});
        std::string tx = "fabric.mac_tx.p" + std::to_string(p);
        mac_tx_[p].net = kernel.declare_net(
            {tx, NetRecord::kFifo, kSw, kMacTxFifoBytes / 64,
             sim::kNetExternalSink, NetRecord::kCreditSkid});
        kernel.declare_port({name(), tx, PortRecord::kWrite, kSw, kMacTxFifoBytes / 64});
    }

    // Host (PCIe virtual Ethernet) and loopback share the ingress plane.
    // host_q shares the registered ingress admission; host_out is drained
    // by the PCIe DMA engine inside our own tick (tag credit is fabric-
    // internal accounting, not a reader-side return).
    sources_[kSrcHost].net = kernel.declare_net(
        {"fabric.host_q", NetRecord::kFifo, kSw, config_.host_queue_packets,
         sim::kNetExternalSource, NetRecord::kCreditRegistered});
    kernel.declare_port({name(), "fabric.host_q", PortRecord::kRead, kSw, 0});
    host_out_net_ = kernel.declare_net({"fabric.host_out", NetRecord::kFifo, kSw,
                                        config_.pcie_tags, sim::kNetExternalSink,
                                        NetRecord::kCreditSkid});
    kernel.declare_port(
        {name(), "fabric.host_out", PortRecord::kWrite, kSw, config_.pcie_tags});
    sources_[kSrcLoopback].net = kernel.declare_net(
        {"fabric.loopback_q", NetRecord::kFifo, kSw, kLoopbackQueuePackets, 0});
    kernel.declare_port(
        {name(), "fabric.loopback_q", PortRecord::kWrite, kSw, kLoopbackQueuePackets});
    kernel.declare_port({name(), "fabric.loopback_q", PortRecord::kRead, kSw, 0});

    for (unsigned r = 0; r < rpu_count(); ++r) {
        std::string rn = std::to_string(r);
        // Per-(RPU, source) virtual output queues inside the RX switches.
        for (unsigned s = 0; s < kSourceCount; ++s) {
            std::string v = "fabric.voq.r" + rn + ".s" + std::to_string(s);
            voq_nets_[r * kSourceCount + s] =
                kernel.declare_net({v, NetRecord::kFifo, kSw, config_.voq_depth, 0});
            kernel.declare_port({name(), v, PortRecord::kWrite, kSw, config_.voq_depth});
            kernel.declare_port({name(), v, PortRecord::kRead, kSw, 0});
        }
        // Per-RPU egress queues: the RPU's TX engine writes, we arbitrate.
        // Admission checks committed+staged occupancy (never same-cycle
        // pops), so the RPU-facing credit return is registered.
        std::string e = "fabric.egress.r" + rn;
        egress_nets_[r] = kernel.declare_net(
            {e, NetRecord::kFifo, 128, config_.egress_queue_depth, 0,
             NetRecord::kCreditRegistered});
        kernel.declare_port(
            {rpus_[r]->name(), e, PortRecord::kWrite, 128, config_.egress_queue_depth});
        kernel.declare_port({name(), e, PortRecord::kRead, 128, 0});
        // We drive the 128-bit per-RPU ingress link the Rpu declared.
        kernel.declare_port({name(), rpus_[r]->name() + ".link_in", PortRecord::kWrite, 0, 0});
    }

    // The LB assignment interface (declared by LoadBalancer::attach).
    kernel.declare_port({name(), "lb.assign", PortRecord::kWrite, 64, 1});
}

bool
Fabric::mac_rx(unsigned port, net::PacketPtr pkt) {
    if (port > 1) sim::fatal("mac_rx: bad port");
    ctr_rx_frames_[port]->add();
    ctr_rx_bytes_[port]->add(pkt->size());
    pkt->in_iface = net::Iface(port);

    // The hardware reassembler (when configured into the LB) sits before
    // the MAC FIFO logically: it may hold the packet or release several.
    released_.clear();
    lb_.reassemble(std::move(pkt), released_);

    IngressSource& src = sources_[port];
    bool all_ok = true;
    bool admitted = false;
    for (auto& p : released_) {
        // The MAC's receive stamp: admission time (release time for a packet
        // the reassembler held) and the class of the frame as it arrived.
        p->mac_rx_cycle = now();
        p->flow_class = net::classify(*p);
        if (src.admit_bytes + src.staged_bytes + p->size() > config_.mac_rx_fifo_bytes) {
            ctr_rx_drops_[port]->add();
            trace(net::Stage::kMacRxFifoDrop, *p);
            tel(src.net, sim::TelemetrySink::NetEvent::kPushBlocked);
            all_ok = false;
            continue;
        }
        trace(net::Stage::kMacRx, *p);
        tel(src.net, sim::TelemetrySink::NetEvent::kPushOk);
        admitted = true;
        stage(src, std::move(p));
    }
    released_.clear();  // drops what overflowed
    if (admitted) handoff();
    return all_ok;
}

bool
Fabric::host_inject(net::PacketPtr pkt) {
    IngressSource& src = sources_[kSrcHost];
    if (src.admit_count + src.staged.size() >= config_.host_queue_packets) {
        tel(src.net, sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(src.net, sim::TelemetrySink::NetEvent::kPushOk);
    pkt->in_iface = net::Iface::kHost;
    pkt->flow_class = net::classify(*pkt);
    stage(src, std::move(pkt));
    ctr_host_tx_frames_->add();
    handoff();
    return true;
}

bool
Fabric::rpu_egress(uint8_t rpu, net::PacketPtr pkt) {
    const sim::NetId enet = egress_nets_[rpu];
    if (egress_committed_[rpu] + egress_staged_[rpu].size() >= config_.egress_queue_depth) {
        tel(enet, sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    trace(net::Stage::kRpuEgress, *pkt);
    tel(enet, sim::TelemetrySink::NetEvent::kPushOk);
    egress_staged_[rpu].push_back({std::move(pkt), now() + 1});
    egress_touched_ |= 1u << rpu;
    handoff();
    return true;
}

void
Fabric::stage(IngressSource& src, net::PacketPtr pkt) {
    src.staged_bytes += pkt->size();
    src.staged.push_back(std::move(pkt));
}

void
Fabric::refresh_egress_head(unsigned r) {
    const uint32_t bit = 1u << r;
    for (uint32_t& heads : egress_heads_) heads &= ~bit;
    const auto& q = egress_queues_[r];
    if (!q.empty()) {
        const unsigned d = unsigned(q.front().pkt->out_iface);
        if (d < kSourceCount) egress_heads_[d] |= bit;
    }
}

void
Fabric::note_egress_change(unsigned r) {
    egress_touched_ |= 1u << r;
    kernel().request_commit(this);
}

bool
Fabric::quiescent() const {
    for (const IngressSource& src : sources_) {
        if (!src.queue.empty() || !src.staged.empty() || now() <= src.busy_until ||
            src.stalled || src.issue_cd != 0) {
            return false;
        }
    }
    for (const auto& q : voqs_)
        if (!q.empty()) return false;
    for (const auto& q : egress_queues_)
        if (!q.empty()) return false;
    for (const auto& v : egress_staged_)
        if (!v.empty()) return false;
    for (const EgressDest& d : egress_)
        if (now() <= d.busy_until || d.done) return false;
    for (const MacTx& m : mac_tx_)
        if (m.active || !m.fifo.empty()) return false;
    if (!host_out_.empty() || pcie_tags_in_use_ != 0 || loopback_.active)
        return false;
    // The PCIe byte credit is the only state that still evolves on an idle
    // tick; std::min clamps it to exactly 16 KiB, after which every tick
    // is the identity and sleeping is exact.
    return pcie_credit_ >= 16.0 * 1024;
}

void
Fabric::commit() {
    // Runs at the clock edge of every cycle that staged an arrival or
    // popped a queue, and at once for a host-phase arrival (handoff()).
    for (unsigned s = 0; s < kSourceCount; ++s) {
        IngressSource& src = sources_[s];
        if (!src.staged.empty()) {
            for (auto& p : src.staged) {
                src.queue_bytes += p->size();
                src.queue.push_back(std::move(p));
            }
            src.staged.clear();
            src.staged_bytes = 0;
        }
        src.admit_bytes = src.queue_bytes;
        src.admit_count = src.queue.size();
    }
    for (uint32_t touched = egress_touched_; touched; touched &= touched - 1) {
        const unsigned r = unsigned(std::countr_zero(touched));
        auto& q = egress_queues_[r];
        for (auto& tp : egress_staged_[r]) q.push_back(std::move(tp));
        egress_staged_[r].clear();
        egress_committed_[r] = q.size();
        refresh_egress_head(r);  // an empty queue may have a head now
    }
    egress_touched_ = 0;
}

void
Fabric::set_mac_tx_sink(unsigned port, SinkFn fn) {
    mac_tx_[port].sink = std::move(fn);
}

void
Fabric::set_host_sink(SinkFn fn) {
    host_sink_ = std::move(fn);
}

void
Fabric::tick() {
    for (unsigned s = 0; s < kSourceCount; ++s) {
        const IngressSource& src = sources_[s];
        if (src.issue_cd == 0 && !src.stalled && src.queue.empty()) continue;
        tick_ingress_source(s);
    }
    tick_rpu_links();
    tick_egress();
    tick_loopback();
    tick_mac_tx();

    // Host-bound packets: PCIe DMA with bounded bandwidth (byte credit
    // accrues at the link rate, saturating at 16 KiB) and a fixed latency
    // per transfer.
    if (pcie_credit_ < 16.0 * 1024) {
        pcie_credit_ = std::min(
            pcie_credit_ + config_.pcie_gbps * 1e9 / 8.0 / sim::kClockHz, 16.0 * 1024);
    }
    while (!host_out_.empty() && host_out_.front().ready <= now() &&
           pcie_credit_ >= double(host_out_.front().pkt->size())) {
        net::PacketPtr pkt = std::move(host_out_.front().pkt);
        host_out_.pop_front();
        const uint32_t size = pkt->size();
        pcie_credit_ -= double(size);
        --pcie_tags_in_use_;
        trace(net::Stage::kHostDeliver, *pkt);
        if (host_sink_) host_sink_(std::move(pkt));
        ctr_host_rx_frames_->add();
        ctr_host_rx_bytes_->add(size);
    }
}

void
Fabric::tick_ingress_source(unsigned s) {
    IngressSource& src = sources_[s];

    if (src.issue_cd > 0) --src.issue_cd;

    // Retry a cut-through push that found its VOQ full.
    if (src.stalled && !try_push_voq(s, src.stalled)) ctr_voq_stall_->add();

    // The stage-1 serializer is busy until the previous transfer's last
    // cycle has passed (bandwidth accounting only: the switch is
    // cut-through, the packet was pushed downstream at start).
    if (now() < src.busy_until || src.issue_cd > 0 || src.stalled ||
        src.queue.empty()) {
        return;
    }

    // Loopback packets carry their destination already (the sending RPU
    // asked the LB for a remote slot); everything else goes to the LB.
    if (s != kSrcLoopback) {
        if (!lb_.try_assign(src.queue.front())) return;  // wait: no eligible slot
        trace(net::Stage::kLbAssign, *src.queue.front());
    }
    net::PacketPtr head = std::move(src.queue.front());
    src.queue.pop_front();
    src.queue_bytes -= head->size();
    kernel().request_commit(this);
    tel(src.net, sim::TelemetrySink::NetEvent::kPop);
    uint32_t bytes = head->size() + (head->hash_prepended ? 4 : 0);
    src.busy_until =
        now() + std::max(1u, div_ceil(bytes, config_.stage1_bytes_per_cycle));
    src.issue_cd = kIssueIntervalCycles;

    // Cut-through: hand the packet to the cluster VOQ now; it becomes
    // visible to the per-RPU link after the fixed distribution pipe.
    if (!try_push_voq(s, head)) src.stalled = std::move(head);
}

bool
Fabric::try_push_voq(unsigned s, net::PacketPtr& pkt) {
    const uint8_t r = pkt->dest_rpu;
    auto& q = voq(r, s);
    const bool ok = q.size() < config_.voq_depth;
    tel(voq_nets_[r * kSourceCount + s], ok ? sim::TelemetrySink::NetEvent::kPushOk
                                            : sim::TelemetrySink::NetEvent::kPushBlocked);
    if (!ok) return false;
    // The pipe is fixed, so a push never moves a non-empty VOQ's head.
    const sim::Cycle ready = now() + kIngressPipeCycles;
    q.push_back({std::move(pkt), ready});
    voq_head_ready_[r] = std::min(voq_head_ready_[r], ready);
    voq_next_ready_ = std::min(voq_next_ready_, ready);
    return true;
}

void
Fabric::tick_rpu_links() {
    if (now() < voq_next_ready_) return;  // every head is still in the pipe
    sim::Cycle next = sim::kNever;
    for (unsigned r = 0; r < rpu_count(); ++r) {
        sim::Cycle& head_ready = voq_head_ready_[r];
        rpu::Rpu* rpu = rpus_[r];
        if (now() >= head_ready && rpu->rx_ready()) {
            for (unsigned i = 0; i < kSourceCount; ++i) {
                unsigned s = (rpu_rr_[r] + i) % kSourceCount;
                auto& q = voq(uint8_t(r), s);
                if (q.empty() || q.front().ready > now()) continue;
                trace(net::Stage::kRpuLinkDispatch, *q.front().pkt);
                tel(voq_nets_[r * kSourceCount + s], sim::TelemetrySink::NetEvent::kPop);
                tel(rpu->link_in_net(), sim::TelemetrySink::NetEvent::kPushOk);
                rpu->begin_rx(std::move(q.front().pkt));
                q.pop_front();
                rpu_rr_[r] = (s + 1) % kSourceCount;
                break;
            }
            head_ready = sim::kNever;
            for (unsigned s = 0; s < kSourceCount; ++s) {
                const auto& q = voq(uint8_t(r), s);
                if (!q.empty()) head_ready = std::min(head_ready, q.front().ready);
            }
        }
        next = std::min(next, head_ready);
    }
    voq_next_ready_ = next;
}

void
Fabric::tick_egress() {
    for (unsigned d = 0; d < kSourceCount; ++d) {
        EgressDest& dest = egress_[d];
        // Retry a cut-through handoff that found no downstream space.
        if (dest.done && !try_egress_handoff(d, dest.done)) continue;

        // The serializer is busy until the previous transfer's last cycle
        // has passed (bandwidth accounting; the switch is cut-through, the
        // handoff happened at pick time). With no queue head for this
        // destination there is nothing to pick.
        if (egress_heads_[d] != 0 && now() >= dest.busy_until) pick_egress(d);
    }
}

void
Fabric::pick_egress(unsigned d) {
    // Round-robin from dest.rr over the RPUs whose egress queue head goes
    // to this destination; the first ready head wins.
    EgressDest& dest = egress_[d];
    const uint32_t heads = egress_heads_[d];
    const uint32_t from_rr = ~0u << dest.rr;
    for (uint32_t m : {heads & from_rr, heads & ~from_rr}) {
        for (; m; m &= m - 1) {
            const unsigned r = unsigned(std::countr_zero(m));
            auto& q = egress_queues_[r];
            if (q.front().ready > now()) continue;
            net::PacketPtr pkt = std::move(q.front().pkt);
            q.pop_front();
            refresh_egress_head(r);
            note_egress_change(r);
            tel(egress_nets_[r], sim::TelemetrySink::NetEvent::kPop);
            dest.busy_until =
                now() + std::max(1u, div_ceil(pkt->size(), config_.stage1_bytes_per_cycle));
            dest.rr = (r + 1) % rpu_count();
            if (!try_egress_handoff(d, pkt)) dest.done = std::move(pkt);
            return;
        }
    }
}

bool
Fabric::try_egress_handoff(unsigned d, net::PacketPtr& p) {
    if (d <= 1) {
        MacTx& mac = mac_tx_[d];
        if (mac.fifo_bytes + p->size() > kMacTxFifoBytes) {
            tel(mac.net, sim::TelemetrySink::NetEvent::kPushBlocked);
            return false;
        }
        tel(mac.net, sim::TelemetrySink::NetEvent::kPushOk);
        mac.fifo_bytes += p->size();
        mac.fifo.push_back({std::move(p), now() + kEgressPipeCycles});
        return true;
    }
    if (d == kSrcHost) {
        // DMA-tag admission: each in-flight host transfer holds a tag.
        if (pcie_tags_in_use_ >= config_.pcie_tags) {
            ctr_host_tag_stall_->add();
            tel(host_out_net_, sim::TelemetrySink::NetEvent::kPushBlocked);
            return false;
        }
        tel(host_out_net_, sim::TelemetrySink::NetEvent::kPushOk);
        ++pcie_tags_in_use_;
        host_out_.push_back({std::move(p), now() + kPcieLatencyCycles});
        return true;
    }
    // Loopback: the single 100G channel with a per-packet routing header.
    IngressSource& lp = sources_[kSrcLoopback];
    if (loopback_.active || lp.queue.size() >= kLoopbackQueuePackets) {
        tel(lp.net, sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(lp.net, sim::TelemetrySink::NetEvent::kPushOk);
    loopback_.cycles_left = line_cycles(p->size() + kLoopbackHeaderBytes, loopback_.line_credit);
    loopback_.active = std::move(p);
    return true;
}

void
Fabric::tick_loopback() {
    if (!loopback_.active) return;
    if (loopback_.cycles_left > 0) --loopback_.cycles_left;
    if (loopback_.cycles_left == 0) {
        IngressSource& lp = sources_[kSrcLoopback];
        const uint32_t size = loopback_.active->size();
        trace(net::Stage::kLoopbackReenter, *loopback_.active);
        stage(lp, std::move(loopback_.active));
        handoff();
        ctr_loopback_frames_->add();
        ctr_loopback_bytes_->add(size);
    }
}

void
Fabric::tick_mac_tx() {
    for (unsigned port = 0; port < 2; ++port) {
        MacTx& mac = mac_tx_[port];
        if (!mac.active && mac.fifo.empty()) continue;
        if (mac.active) {
            if (mac.cycles_left > 0) --mac.cycles_left;
            if (mac.cycles_left > 0) continue;
            ctr_tx_frames_[port]->add();
            ctr_tx_bytes_[port]->add(mac.active->size());
            trace(net::Stage::kMacTx, *mac.active);
            if (mac.sink) mac.sink(std::move(mac.active));
            mac.active.reset();
            // Fall through: the line is back-to-back at full rate.
        }
        if (!mac.fifo.empty() && mac.fifo.front().ready <= now()) {
            mac.active = std::move(mac.fifo.front().pkt);
            mac.fifo_bytes -= mac.active->size();
            mac.fifo.pop_front();
            tel(mac.net, sim::TelemetrySink::NetEvent::kPop);
            mac.cycles_left = line_cycles(mac.active->wire_size(), mac.line_credit);
        }
    }
}

sim::ResourceFootprint
Fabric::switching_resources() const {
    // Calibrated to the "Switching" rows of Tables 1-2: both unidirectional
    // planes scale with RPU count on top of a fixed port-side stage.
    uint64_t n = rpu_count();
    return {.luts = 10570 + 4729 * n,
            .regs = 14126 + 6845 * n,
            .bram = 24 + 3 * n / 2,
            .uram = 4 * n};
}

sim::ResourceFootprint
Fabric::interconnect_resources() const {
    // "Single Interconnect" row: mildly larger per instance in smaller
    // configurations (wider per-RPU arbitration share).
    uint64_t n = rpu_count();
    return {.luts = 3135 - 21 * n, .regs = 3147 - 12 * n};
}

}  // namespace rosebud::dist
