#include "msg/broadcast.h"

namespace rosebud::msg {

namespace {

/// Distribution pipe.
constexpr unsigned kPipelineMinCycles = 17;
/// Deterministic path-length spread.
constexpr unsigned kPipelineJitter = 6;
/// Sustained grant cost in tenths of a cycle: the arbiter issues at most
/// 10/kGrantIntervalTenths grants per cycle. Models the control-channel
/// FIFO/register bubbles the paper attributes the above-1152ns residual
/// latency to (Section 6.3).
constexpr unsigned kGrantIntervalTenths = 13;

}  // namespace

BroadcastNetwork::BroadcastNetwork(sim::Kernel& kernel, sim::Stats& stats,
                                   const Config& config)
    : sim::Component(kernel, "broadcast"),
      config_(config),
      stats_(stats),
      sinks_(config.rpu_count),
      ctr_tx_blocked_(&stats.counter("broadcast.tx_blocked")),
      ctr_granted_(&stats.counter("broadcast.granted")) {
    tx_fifos_.reserve(config.rpu_count);
    for (unsigned i = 0; i < config.rpu_count; ++i) {
        std::string net = "broadcast.tx" + std::to_string(i);
        tx_fifos_.push_back(std::make_unique<sim::Fifo<Msg>>(
            kernel, net, config.tx_fifo_depth, 64u, 0u,
            sim::CreditPolicy::kRegistered));
        kernel.declare_port({name(), net, sim::PortRecord::kRead, 64, 0});
    }
}

void
BroadcastNetwork::set_deliver(unsigned rpu, DeliverFn fn) {
    if (rpu < sinks_.size()) sinks_[rpu] = std::move(fn);
}

bool
BroadcastNetwork::try_send(uint8_t rpu, uint32_t offset, uint32_t value) {
    if (rpu >= tx_fifos_.size()) return false;
    if (!tx_fifos_[rpu]->push({offset, value})) {
        ctr_tx_blocked_->add();
        return false;
    }
    return true;
}

bool
BroadcastNetwork::quiescent() const {
    if (!in_flight_.empty()) return false;
    // The grant credit accrues 10/cycle up to interval+10; once saturated
    // an idle tick is the identity, so sleeping is exact.
    if (grant_credit_ < kGrantIntervalTenths + 10) return false;
    for (const auto& f : tx_fifos_)
        if (f->size() != 0) return false;
    return true;
}

void
BroadcastNetwork::tick() {
    // Arbitration: in saturation every core is granted once per rpu_count
    // cycles (strict rotation); when only some cores have traffic the
    // rotation still advances one position per cycle, so a lone sender is
    // granted within at most rpu_count cycles — matching the paper's
    // "sent out every 16 cycles due to round-robin arbitration".
    grant_credit_ = std::min(grant_credit_ + 10, kGrantIntervalTenths + 10);
    if (grant_credit_ >= kGrantIntervalTenths) {
        for (unsigned i = 0; i < config_.rpu_count; ++i) {
            unsigned cand = (rr_ + i) % config_.rpu_count;
            if (tx_fifos_[cand]->empty()) continue;
            Msg m = tx_fifos_[cand]->pop();
            // Deterministic path-length spread across the distribution pipe.
            sim::Cycle delay = kPipelineMinCycles + (now() + cand) % kPipelineJitter;
            in_flight_.push_back({m, now() + delay});
            ctr_granted_->add();
            rr_ = (cand + 1) % config_.rpu_count;
            grant_credit_ -= kGrantIntervalTenths;
            break;
        }
    }

    while (!in_flight_.empty() && in_flight_.front().deliver_at <= now()) {
        const Msg& m = in_flight_.front().msg;
        for (auto& sink : sinks_) {
            if (sink) sink(m.offset, m.value);
        }
        if (probe_) probe_(m.offset, m.value, now());
        ++delivered_;
        in_flight_.pop_front();
    }
}

sim::ResourceFootprint
BroadcastNetwork::resources() const {
    // Part of the "Switching" row in Tables 1-2 (control channels).
    uint64_t n = config_.rpu_count;
    return {.luts = 120 * n, .regs = 300 * n};
}

}  // namespace rosebud::msg
