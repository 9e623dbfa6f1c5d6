#include "lb/load_balancer.h"

#include <bit>
#include <functional>

#include "sim/log.h"

namespace rosebud::lb {

namespace {

/// Stable insertion sort: the staged lists hold a few entries per cycle,
/// and unlike std::stable_sort it never takes a temporary buffer.
template <typename T, typename Less>
void
stable_sort_small(std::vector<T>& v, Less less) {
    for (size_t i = 1; i < v.size(); ++i) {
        T x = std::move(v[i]);
        size_t j = i;
        for (; j > 0 && less(x, v[j - 1]); --j) v[j] = std::move(v[j - 1]);
        v[j] = std::move(x);
    }
}

}  // namespace

LoadBalancer::LoadBalancer(sim::Stats& stats, const Config& config)
    : stats_(stats),
      config_(config),
      free_slots_(config.rpu_count),
      recv_mask_(rpu_mask()),
      enable_mask_(rpu_mask()) {
    if (config.rpu_count == 0 || config.rpu_count > 32) {
        sim::fatal("LoadBalancer: rpu_count must be in [1,32]");
    }
    ctr_assign_stall_ = &stats.counter("lb.assign_stall");
    ctr_assigned_ = &stats.counter("lb.assigned");
    ctr_assigned_rpu_.reserve(config.rpu_count);
    for (unsigned r = 0; r < config.rpu_count; ++r) {
        ctr_assigned_rpu_.push_back(
            &stats.counter("lb.assigned.rpu" + std::to_string(r)));
    }
    ctr_reasm_held_ = &stats.counter("lb.reassembler.held");
    ctr_reasm_overflow_ = &stats.counter("lb.reassembler.overflow");
    ctr_reasm_stale_ = &stats.counter("lb.reassembler.stale");
}

void
LoadBalancer::attach(sim::Kernel& kernel) {
    kernel_ = &kernel;
    adapter_ = std::make_unique<CommitAdapter>(*this);

    // Elaborate the LB's control channels: a 64-bit request lane per RPU
    // (slot frees / configs / remote-slot requests), a response lane back,
    // and the assignment interface the fabric queries.
    using sim::NetRecord;
    using sim::PortRecord;
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        std::string rpu = "rpu" + std::to_string(r);
        std::string ctrl = "lb.ctrl.r" + std::to_string(r);
        std::string resp = "lb.resp.r" + std::to_string(r);
        kernel.declare_net({ctrl, NetRecord::kLink, 64, 1, 0});
        kernel.declare_port({"lb", ctrl, PortRecord::kRead, 64, 1});
        kernel.declare_net({resp, NetRecord::kLink, 64, 1, 0});
        kernel.declare_port({"lb", resp, PortRecord::kWrite, 64, 1});
    }
    assign_net_ = kernel.declare_net({"lb.assign", NetRecord::kLink, 64, 1, 0});
    kernel.declare_port({"lb", "lb.assign", PortRecord::kRead, 64, 1});
}

void
LoadBalancer::on_slot_config(uint8_t rpu, const rpu::SlotConfig& cfg) {
    if (rpu >= config_.rpu_count) return;
    staged_configs_.emplace_back(rpu, cfg);
    handoff();
}

void
LoadBalancer::on_slot_free(uint8_t rpu, uint8_t slot) {
    if (rpu >= config_.rpu_count) return;
    staged_frees_.emplace_back(rpu, slot);
    handoff();
}

std::optional<uint8_t>
LoadBalancer::request_slot(uint8_t dst_rpu) {
    if (dst_rpu >= config_.rpu_count || free_slots_[dst_rpu].empty()) return std::nullopt;
    uint8_t s = free_slots_[dst_rpu].front();
    free_slots_[dst_rpu].pop_front();
    return s;
}

void
LoadBalancer::request_slot_routed(uint8_t requester, uint8_t dst_rpu) {
    staged_requests_.emplace_back(requester, dst_rpu);
    handoff();
}

void
LoadBalancer::handoff() {
    if (kernel_ && kernel_->in_tick()) {
        kernel_->request_commit(adapter_.get());
    } else {
        commit_staged();
    }
}

void
LoadBalancer::commit_staged() {
    if (staged_configs_.empty() && staged_frees_.empty() && staged_requests_.empty()) {
        return;
    }
    // Deterministic application order regardless of which component ticked
    // first: configs by RPU, then frees sorted by
    // (RPU, slot), then requests by requester id. Sorting makes the applied
    // order a function of the staged *set*, never of arrival order.
    stable_sort_small(staged_configs_,
                      [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [rpu, cfg] : staged_configs_) {
        free_slots_[rpu].clear();
        for (uint32_t s = 1; s <= cfg.count; ++s) free_slots_[rpu].push_back(uint8_t(s));
    }
    staged_configs_.clear();
    stable_sort_small(staged_frees_, std::less<>());
    for (const auto& [rpu, slot] : staged_frees_) free_slots_[rpu].push_back(slot);
    staged_frees_.clear();
    stable_sort_small(staged_requests_,
                      [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [requester, dst] : staged_requests_) {
        if (slot_response_) slot_response_(requester, dst, request_slot(dst));
    }
    staged_requests_.clear();
}

uint8_t
LoadBalancer::pick_rr(uint32_t eligible) {
    for (unsigned i = 0; i < config_.rpu_count; ++i) {
        unsigned r = (rr_next_ + i) % config_.rpu_count;
        if ((eligible >> r & 1) && (recv_mask_ >> r & 1) && (enable_mask_ >> r & 1) &&
            !free_slots_[r].empty()) {
            rr_next_ = (r + 1) % config_.rpu_count;
            return uint8_t(r);
        }
    }
    return 0xff;
}

std::optional<uint8_t>
LoadBalancer::pick_for(const net::PacketPtr& pkt, uint32_t hash) {
    switch (config_.policy) {
    case Policy::kRoundRobin: {
        uint8_t r = pick_rr(~0u);
        if (r == 0xff) return std::nullopt;
        return r;
    }
    case Policy::kCustom: {
        if (!config_.custom_steer) return std::nullopt;
        uint8_t r = pick_rr(config_.custom_steer(*pkt));
        if (r == 0xff) return std::nullopt;
        return r;
    }
    case Policy::kHash: {
        // Steer by the flow hash among *receiving* RPUs: the
        // (hash % n)-th set bit of the receive-and-enable mask.
        uint32_t eligible = recv_mask_ & enable_mask_ & rpu_mask();
        if (eligible == 0) return std::nullopt;
        for (unsigned k = hash % unsigned(std::popcount(eligible)); k > 0; --k)
            eligible &= eligible - 1;
        const uint8_t r = uint8_t(std::countr_zero(eligible));
        // Flow affinity is strict: if the flow's RPU has no free slot the
        // packet must wait (it cannot spill to another RPU).
        if (free_slots_[r].empty()) return std::nullopt;
        return r;
    }
    case Policy::kLeastLoaded: {
        int best = -1;
        size_t best_free = 0;
        for (unsigned r = 0; r < config_.rpu_count; ++r) {
            if (!(recv_mask_ >> r & 1) || !(enable_mask_ >> r & 1)) continue;
            if (free_slots_[r].size() > best_free) {
                best_free = free_slots_[r].size();
                best = int(r);
            }
        }
        if (best < 0) return std::nullopt;
        (void)pkt;
        return uint8_t(best);
    }
    }
    return std::nullopt;
}

bool
LoadBalancer::try_assign(const net::PacketPtr& pkt) {
    uint32_t hash = 0;
    if (config_.policy == Policy::kHash) hash = net::packet_flow_hash(*pkt);

    auto rpu = pick_for(pkt, hash);
    if (!rpu) {
        ctr_assign_stall_->add();
        tel(sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(sim::TelemetrySink::NetEvent::kPushOk);

    uint8_t slot = free_slots_[*rpu].front();
    free_slots_[*rpu].pop_front();
    pkt->dest_rpu = *rpu;
    pkt->dest_slot = slot;
    if (config_.policy == Policy::kHash) {
        pkt->lb_hash = hash;
        pkt->hash_prepended = true;
    }
    ctr_assigned_->add();
    ctr_assigned_rpu_[*rpu]->add();
    return true;
}

void
LoadBalancer::reassemble(net::PacketPtr pkt, std::vector<net::PacketPtr>& out) {
    if (!config_.reassembler) {
        out.push_back(std::move(pkt));
        return;
    }

    auto parsed = net::parse_packet(*pkt);
    if (!parsed || !parsed->has_tcp) {
        out.push_back(std::move(pkt));
        return;
    }

    net::FiveTuple key = net::extract_five_tuple(*parsed);
    FlowRecord& rec = flows_[key];
    uint64_t seq = parsed->tcp.seq;
    uint64_t advance = parsed->payload_len;

    if (!rec.seen) {
        rec.seen = true;
        rec.next_seq = seq + advance;
        out.push_back(std::move(pkt));
        return;
    }

    if (seq == rec.next_seq) {
        rec.next_seq = seq + advance;
        out.push_back(std::move(pkt));
        // Drain any held packets that are now in order.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t i = 0; i < rec.held.size(); ++i) {
                auto held_parsed = net::parse_packet(*rec.held[i]);
                if (held_parsed && held_parsed->tcp.seq == rec.next_seq) {
                    rec.next_seq += held_parsed->payload_len;
                    out.push_back(std::move(rec.held[i]));
                    rec.held.erase(rec.held.begin() + long(i));
                    progressed = true;
                    break;
                }
            }
        }
        return;
    }

    if (seq > rec.next_seq) {
        if (rec.held.size() < config_.reorder_buffer) {
            ctr_reasm_held_->add();
            rec.held.push_back(std::move(pkt));
            return;
        }
        // Buffer exhausted: give up on ordering, flush everything.
        ctr_reasm_overflow_->add();
        for (net::PacketPtr& h : rec.held) out.push_back(std::move(h));
        rec.held.clear();
        out.push_back(std::move(pkt));
        rec.next_seq = seq + advance;
        return;
    }

    // Old/duplicate segment: pass through unchanged.
    ctr_reasm_stale_->add();
    out.push_back(std::move(pkt));
}

void
LoadBalancer::host_write(uint32_t addr, uint32_t value) {
    switch (addr) {
    case kLbRegRecvMask: recv_mask_ = value; break;
    case kLbRegEnableMask: enable_mask_ = value; break;
    case kLbRegFlushRpu:
        if (value < config_.rpu_count) free_slots_[value].clear();
        break;
    default:
        break;
    }
}

uint32_t
LoadBalancer::host_read(uint32_t addr) const {
    if (addr == kLbRegRecvMask) return recv_mask_;
    if (addr == kLbRegEnableMask) return enable_mask_;
    if (addr == kLbRegPolicy) return uint32_t(config_.policy);
    if (addr >= kLbRegFreeSlotsBase) {
        uint32_t idx = (addr - kLbRegFreeSlotsBase) / 4;
        if (idx < config_.rpu_count) return uint32_t(free_slots_[idx].size());
    }
    return 0;
}

uint32_t
LoadBalancer::free_slots(uint8_t rpu) const {
    return rpu < config_.rpu_count ? uint32_t(free_slots_[rpu].size()) : 0;
}

sim::ResourceFootprint
LoadBalancer::resources() const {
    // Calibrated to Tables 1-3: RR LB is 8221/22503 at 16 RPUs and
    // 7580/22076 at 8; the hash LB (Table 3) adds the inline CRC engine
    // and packet prepend datapath, the reassembler a flow-state BRAM.
    uint64_t n = config_.rpu_count;
    sim::ResourceFootprint fp{.luts = 6939 + 80 * n, .regs = 21649 + 53 * n};
    if (config_.policy == Policy::kHash) {
        fp += sim::ResourceFootprint{.luts = 2887, .regs = 2796, .bram = 26};
    }
    if (config_.reassembler) {
        fp += sim::ResourceFootprint{.luts = 3900, .regs = 5200, .bram = 24};
    }
    return fp;
}

}  // namespace rosebud::lb
