#include "dist/traffic.h"

#include <cmath>

namespace rosebud::dist {

TrafficSource::TrafficSource(sim::Kernel& kernel, const Config& config, Fabric& fabric,
                             GenFn gen)
    : sim::Component(kernel, "source.port" + std::to_string(config.port)),
      config_(config),
      fabric_(fabric),
      gen_(std::move(gen)),
      line_bytes_per_cycle_(config.line_gbps * 1e9 / 8.0 / sim::kClockHz),
      bytes_per_cycle_(line_bytes_per_cycle_ * config.load),
      pps_per_cycle_(config.max_pps > 0 ? config.max_pps / sim::kClockHz : 0.0) {
    // We are the wire side of this port's MAC RX FIFO.
    kernel.declare_port({name(), "fabric.mac_rx.p" + std::to_string(config.port),
                         sim::PortRecord::kWrite, 512, 0});
}

void
TrafficSource::tick() {
    if (config_.max_packets && offered_ >= config_.max_packets) return;

    tokens_ += bytes_per_cycle_;
    if (pps_per_cycle_ > 0) pps_tokens_ += pps_per_cycle_;

    if (!staged_) staged_ = gen_();
    if (!staged_) return;

    while (staged_ && tokens_ >= double(staged_->wire_size()) &&
           (pps_per_cycle_ == 0 || pps_tokens_ >= 1.0)) {
        tokens_ -= double(staged_->wire_size());
        if (pps_per_cycle_ > 0) pps_tokens_ -= 1.0;
        // Timestamp at the start of serialization (the frame has been on
        // the wire for wire_size/line_rate by the time it is delivered).
        staged_->tx_ns = kernel().now_ns() - double(staged_->wire_size()) /
                                                 line_bytes_per_cycle_ * sim::kNsPerCycle;
        ++offered_;
        fabric_.mac_rx(config_.port, std::move(staged_));  // counts its own drops
        if (config_.max_packets && offered_ >= config_.max_packets) break;
        staged_ = gen_();
    }
    // Bound burst accumulation to one frame's worth of credit.
    if (staged_ && tokens_ > 2.0 * double(staged_->wire_size())) {
        tokens_ = 2.0 * double(staged_->wire_size());
    }
}

sim::Cycle
TrafficSource::idle_ticks() const {
    if (config_.max_packets && offered_ >= config_.max_packets) return sim::kNever;
    if (!staged_) return 0;  // next tick must call gen_() — run it live
    double n = 0.0;
    const double need = double(staged_->wire_size()) - tokens_;
    if (need > 0.0) {
        if (bytes_per_cycle_ <= 0.0) return sim::kNever;  // load 0: never emits
        n = need / bytes_per_cycle_ - 2.0;
    }
    if (pps_per_cycle_ > 0 && pps_tokens_ < 1.0) {
        // Emission needs BOTH buckets full; the later one dominates.
        const double n2 = (1.0 - pps_tokens_) / pps_per_cycle_ - 2.0;
        if (n2 > n) n = n2;
    }
    if (n <= 0.0) return 0;
    return sim::Cycle(n);
}

sim::Cycle
TrafficSource::wake_due() const {
    const sim::Cycle n = idle_ticks();
    return n == sim::kNever ? sim::kNever : now() + n;
}

void
TrafficSource::on_wake(sim::Cycle n) {
    if (config_.max_packets && offered_ >= config_.max_packets) return;
    // Exact replay of tick()'s non-emitting path (idle_ticks() guarantees
    // no emission threshold is reached inside this window).
    for (sim::Cycle i = 0; i < n; ++i) {
        tokens_ += bytes_per_cycle_;
        if (pps_per_cycle_ > 0) pps_tokens_ += pps_per_cycle_;
        if (staged_ && tokens_ > 2.0 * double(staged_->wire_size())) {
            tokens_ = 2.0 * double(staged_->wire_size());
        }
    }
}

TrafficSink::TrafficSink(sim::Kernel& kernel, sim::Stats& stats, std::string name)
    : kernel_(kernel),
      name_(std::move(name)),
      ctr_frames_(&stats.counter(name_ + ".frames")),
      ctr_bytes_(&stats.counter(name_ + ".bytes")) {}

void
TrafficSink::deliver(const net::PacketPtr& pkt) {
    ++frames_;
    bytes_ += pkt->size();
    ++window_frames_;
    window_bytes_ += pkt->size();
    const double ps = (kernel_.now_ns() - pkt->tx_ns) * 1e3;
    latency_.record(ps > 0 ? uint64_t(std::llround(ps)) : 0);
    ctr_frames_->add();
    ctr_bytes_->add(pkt->size());
}

void
TrafficSink::start_window() {
    window_frames_ = 0;
    window_bytes_ = 0;
    latency_.clear();
}

}  // namespace rosebud::dist
