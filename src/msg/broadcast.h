/// \file
/// Inter-RPU broadcast messaging (paper Section 4.4, evaluated in 6.3).
///
/// A write to an RPU's broadcast region becomes a message in that RPU's
/// 18-deep TX FIFO (16 FIFO entries + 2 PR-boundary registers). A central
/// work-conserving round-robin arbiter drains one message per grant
/// period; every drained message is delivered to ALL RPUs simultaneously
/// after a distribution-pipeline delay. Under saturation each of N cores
/// gets a grant every N cycles, which is exactly the paper's observed
/// 16 x 18 cycles (1152 ns) of queueing in the 16-RPU design; sparse
/// messages see only the pipeline (72-92 ns).

#ifndef ROSEBUD_MSG_BROADCAST_H
#define ROSEBUD_MSG_BROADCAST_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/fifo.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud::msg {

class BroadcastNetwork : public sim::Component {
 public:
    /// The pipeline delay and the grant rate are calibration constants in
    /// msg/broadcast.cc.
    struct Config {
        unsigned rpu_count = 16;
        unsigned tx_fifo_depth = 18;       ///< 16 FIFO + 2 PR border registers
    };

    /// Delivery callback: (offset, value) fanned out to one RPU.
    using DeliverFn = std::function<void(uint32_t offset, uint32_t value)>;

    BroadcastNetwork(sim::Kernel& kernel, sim::Stats& stats, const Config& config);

    /// Register RPU `i`'s delivery sink (System wiring).
    void set_deliver(unsigned rpu, DeliverFn fn);

    /// Called from an RPU's blocked-store path. Returns false when the
    /// sender's FIFO is full (the core's store retries).
    bool try_send(uint8_t rpu, uint32_t offset, uint32_t value);

    /// Observation hook fired once per message at delivery time (used by
    /// the Section 6.3 latency measurement): (offset, value, now).
    using DeliveryProbe = std::function<void(uint32_t, uint32_t, sim::Cycle)>;
    void set_delivery_probe(DeliveryProbe fn) { probe_ = std::move(fn); }

    void tick() override;

    /// Idle when nothing is queued or in flight and the grant credit has
    /// saturated (the only per-tick state left). The TX FIFOs' wake edges
    /// (we declared kRead ports on them) re-arm the arbiter on a push.
    bool quiescent() const override;

    /// Messages delivered so far.
    uint64_t delivered() const { return delivered_; }

    sim::ResourceFootprint resources() const;

 private:
    struct Msg {
        uint32_t offset;
        uint32_t value;
    };
    struct InFlight {
        Msg msg;
        sim::Cycle deliver_at;
    };

    Config config_;
    sim::Stats& stats_;
    /// Per-sender registered TX FIFOs: the sending RPU pushes while this
    /// component pops, so they use registered (order-independent) credit.
    std::vector<std::unique_ptr<sim::Fifo<Msg>>> tx_fifos_;
    std::vector<DeliverFn> sinks_;
    std::deque<InFlight> in_flight_;
    unsigned rr_ = 0;
    unsigned grant_credit_ = 0;
    uint64_t delivered_ = 0;
    DeliveryProbe probe_;
    sim::Counter* ctr_tx_blocked_;
    sim::Counter* ctr_granted_;
};

}  // namespace rosebud::msg

#endif  // ROSEBUD_MSG_BROADCAST_H
