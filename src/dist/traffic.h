/// \file
/// Traffic endpoints standing in for the paper's tester FPGA.
///
/// TrafficSource paces frames onto one wire (100 Gbps by default; token
/// bucket in line bytes, including preamble/IFG/FCS overhead) and
/// timestamps them at the start of serialization at that wire's rate,
/// exactly like the paper's packet generator.
/// TrafficSink records delivered frames, bytes, and round-trip latency.
/// The source can optionally be capped at a packet rate to mirror the
/// tester's own generation limit below 128-byte frames (Section 6.1).

#ifndef ROSEBUD_DIST_TRAFFIC_H
#define ROSEBUD_DIST_TRAFFIC_H

#include <functional>
#include <memory>

#include "dist/fabric.h"
#include "net/packet.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace rosebud::dist {

class TrafficSource : public sim::Component {
 public:
    struct Config {
        unsigned port = 0;
        double line_gbps = 100.0;
        double load = 1.0;          ///< fraction of line rate to offer
        double max_pps = 0.0;       ///< 0 = unlimited (tester generation cap)
        uint64_t max_packets = 0;   ///< 0 = unlimited
    };

    /// `gen` produces the next frame each time the wire frees up.
    using GenFn = std::function<net::PacketPtr()>;

    TrafficSource(sim::Kernel& kernel, const Config& config, Fabric& fabric,
                  GenFn gen);

    void tick() override;

    /// Between frames a tick only adds tokens, so the source sleeps until
    /// the cycle it may emit again (wake_due) and on_wake replays the
    /// additions. A capped source that has offered its last packet never
    /// acts again and sleeps for the rest of the run.
    bool quiescent() const override { return idle_ticks() > 0; }
    sim::Cycle wake_due() const override;

    uint64_t offered() const { return offered_; }

 protected:
    /// Bit-exact replay of `n` non-emitting ticks: the token additions
    /// tick() would have made, in the same order (never summarized as
    /// tokens + n*rate, which differs in floating point).
    void on_wake(sim::Cycle n) override;

 private:
    /// How many upcoming ticks provably emit nothing (kNever: none ever
    /// will). Two cycles under the analytic emission point, so the float
    /// replay can never cross the threshold early; 0 when the next tick
    /// must run live.
    sim::Cycle idle_ticks() const;

    Config config_;
    Fabric& fabric_;
    GenFn gen_;
    double tokens_ = 0.0;
    double line_bytes_per_cycle_;  ///< the wire's serialization rate
    double bytes_per_cycle_;       ///< offered rate: line rate x load
    double pps_tokens_ = 0.0;
    double pps_per_cycle_;
    net::PacketPtr staged_;
    uint64_t offered_ = 0;
};

/// Records what comes back to the tester.
class TrafficSink {
 public:
    TrafficSink(sim::Kernel& kernel, sim::Stats& stats, std::string name);

    /// Wire as a Fabric MAC TX sink.
    void deliver(const net::PacketPtr& pkt);

    uint64_t frames() const { return frames_; }
    uint64_t bytes() const { return bytes_; }
    uint64_t window_frames() const { return window_frames_; }
    uint64_t window_bytes() const { return window_bytes_; }

    /// Mark the start of the measurement window (drops warm-up counts).
    void start_window();

    /// Round-trip latency of every frame delivered since the window
    /// start, in picoseconds: every simulated latency is a whole number of
    /// them (4,000 per cycle, 80 per wire byte), so sum, min and max are
    /// exact.
    sim::Histogram& latency() { return latency_; }

 private:
    sim::Kernel& kernel_;
    std::string name_;
    sim::Counter* ctr_frames_;
    sim::Counter* ctr_bytes_;
    uint64_t frames_ = 0;
    uint64_t bytes_ = 0;
    uint64_t window_frames_ = 0;
    uint64_t window_bytes_ = 0;
    sim::Histogram latency_;
};

}  // namespace rosebud::dist

#endif  // ROSEBUD_DIST_TRAFFIC_H
