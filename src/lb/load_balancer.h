/// \file
/// The customizable packet load balancer (paper Section 4.2).
///
/// The LB owns the only global state of the data plane: which packet slots
/// are free in which RPU. Firmware announces its slot layout at boot
/// (init_slots), the LB hands out (RPU, slot) labels to arriving packets
/// according to a policy, and RPU interconnects return freed slots after
/// transmission — the "central part / distributed part" control split the
/// paper describes.
///
/// Three policies are provided (the paper's examples):
///  * round-robin       — rotate over enabled RPUs with a free slot;
///  * hash              — CRC32C flow hash, steered by its low bits, with
///                        the 4-byte hash prepended to the packet (the
///                        Pigasus SW-reorder case study);
///  * least-loaded      — pick the enabled RPU with most free slots.
///
/// The hash LB can optionally include the inline *reassembler* accelerator
/// (the paper's HW-reorder configuration models it inside the LB): it
/// restores TCP flow order before packets reach the RPUs, so firmware
/// keeps no flow state.
///
/// A 30-bit host read/write channel configures the LB at runtime: receive
/// and enable masks, slot flushing before reconfiguration, and status
/// counters (free slots per RPU) for freeze/starvation detection.

#ifndef ROSEBUD_LB_LOAD_BALANCER_H
#define ROSEBUD_LB_LOAD_BALANCER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/flow.h"
#include "net/packet.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/ring.h"
#include "sim/stats.h"

namespace rosebud::lb {

enum class Policy {
    kRoundRobin,
    kHash,
    kLeastLoaded,
    /// User-supplied steering (paper Section 4.2: "a policy designed
    /// specifically for their target middlebox application", and the
    /// Conclusion's cloud-sharing scenario where the provider's LB pins
    /// tenants to RPU subsets). The custom function returns a mask of
    /// eligible RPUs per packet; round-robin applies within the mask.
    kCustom,
};

/// Host-channel register addresses (30-bit space, paper Section 4.2).
enum LbReg : uint32_t {
    kLbRegRecvMask = 0x0,    ///< RW: RPUs eligible for incoming traffic
    kLbRegEnableMask = 0x4,  ///< RW: RPUs enabled at all
    kLbRegFlushRpu = 0x8,    ///< W: drop the free-slot list of RPU <value>
    kLbRegPolicy = 0xc,      ///< R: active policy id
    /// R: free-slot count of RPU i at kLbRegFreeSlotsBase + 4*i.
    kLbRegFreeSlotsBase = 0x100,
};

class LoadBalancer {
 public:
    struct Config {
        unsigned rpu_count = 16;
        Policy policy = Policy::kRoundRobin;
        /// Inline hardware reassembler (flow reordering fixed in the LB).
        bool reassembler = false;
        /// Reassembler: max buffered out-of-order packets per flow.
        unsigned reorder_buffer = 32;
        /// Steering function for Policy::kCustom: packet -> eligible-RPU
        /// mask (0 = defer; the packet waits at the head of its FIFO).
        std::function<uint32_t(const net::Packet&)> custom_steer{};
    };

    LoadBalancer(sim::Stats& stats, const Config& config);

    /// Clock the LB's control channels: RPU-side slot frees, slot configs
    /// and remote-slot requests arriving during a tick are staged and
    /// applied at the clock edge in a deterministic order (configs, then
    /// frees, then requests sorted by requester), so the free-slot state
    /// does not depend on component tick order. Unattached (standalone
    /// tests), every call applies immediately. Also declares the LB's
    /// control nets in the elaboration netlist.
    void attach(sim::Kernel& kernel);

    // --- data-plane interface (called by the distribution fabric) -----------

    /// Try to label `pkt` with a destination RPU and slot. Returns false
    /// when no eligible RPU has a free slot (the packet waits at the head
    /// of its ingress FIFO). On success the packet may also get the flow
    /// hash prepended (hash policy).
    bool try_assign(const net::PacketPtr& pkt);

    /// Reassembler stage in front of assignment. Appends to `out` the
    /// packets releasable *now*, in flow order: usually just `pkt`;
    /// nothing when `pkt` is held; several when it fills a gap or the
    /// reorder buffer overflows. `out` is the caller's reusable scratch
    /// and is never cleared here, so the per-packet path allocates
    /// nothing once its capacity has grown.
    void reassemble(net::PacketPtr pkt, std::vector<net::PacketPtr>& out);

    // --- RPU control-channel callbacks --------------------------------------

    void on_slot_config(uint8_t rpu, const rpu::SlotConfig& cfg);
    void on_slot_free(uint8_t rpu, uint8_t slot);

    /// Loopback support: an RPU asks for a slot in a specific other RPU.
    /// Immediate form, used standalone and by the host tooling.
    std::optional<uint8_t> request_slot(uint8_t dst_rpu);

    /// Routed form used by the System wiring: the answer is delivered via
    /// the slot-response handler (at this LB's commit when attached).
    void request_slot_routed(uint8_t requester, uint8_t dst_rpu);

    /// Response channel back to the requesting RPU.
    using SlotResponseFn =
        std::function<void(uint8_t requester, uint8_t dst_rpu, std::optional<uint8_t> slot)>;
    void set_slot_response_handler(SlotResponseFn fn) { slot_response_ = std::move(fn); }

    // --- host configuration channel ------------------------------------------

    void host_write(uint32_t addr, uint32_t value);
    uint32_t host_read(uint32_t addr) const;

    // --- introspection ---------------------------------------------------------

    uint32_t free_slots(uint8_t rpu) const;
    uint32_t recv_mask() const { return recv_mask_; }
    const Config& config() const { return config_; }

    /// Footprint calibrated to the paper's LB rows (Tables 1-3); the hash
    /// policy adds the inline hash engine, the reassembler its flow table.
    sim::ResourceFootprint resources() const;

 private:
    /// Bit i set for every RPU i this LB serves.
    uint32_t rpu_mask() const {
        return config_.rpu_count >= 32 ? ~0u : (1u << config_.rpu_count) - 1;
    }
    uint8_t pick_rr(uint32_t eligible);
    std::optional<uint8_t> pick_for(const net::PacketPtr& pkt, uint32_t hash);
    /// True during the tick phase of an attached LB. Every caller that
    /// then stages control traffic requests the adapter's commit.
    bool staging() const { return kernel_ && kernel_->in_tick(); }
    void request_commit() { kernel_->request_commit(adapter_.get()); }
    void commit_staged();
    /// Telemetry tap on the assignment interface (`lb.assign`).
    void tel(sim::TelemetrySink::NetEvent ev) const {
        if (!kernel_) return;
        if (sim::TelemetrySink* t = kernel_->telemetry()) t->net_event(assign_net_, ev);
    }

    /// Clock-edge adapter: the kernel commits it on the cycles the LB
    /// staged control traffic (request_commit()).
    struct CommitAdapter : sim::Clocked {
        explicit CommitAdapter(LoadBalancer& lb) : lb(lb) {}
        void commit() override { lb.commit_staged(); }
        LoadBalancer& lb;
    };

    sim::Stats& stats_;
    Config config_;
    sim::Kernel* kernel_ = nullptr;
    sim::NetId assign_net_ = sim::kNoNet;
    std::unique_ptr<CommitAdapter> adapter_;
    SlotResponseFn slot_response_;

    // Hot-path counters resolved once at construction.
    sim::Counter* ctr_assign_stall_;
    sim::Counter* ctr_assigned_;
    std::vector<sim::Counter*> ctr_assigned_rpu_;
    sim::Counter* ctr_reasm_held_;
    sim::Counter* ctr_reasm_overflow_;
    sim::Counter* ctr_reasm_stale_;

    // Control-channel traffic staged during the tick phase. Applied at the
    // clock edge in sorted order, so the result depends on the staged set,
    // never on tick order (shuffled schedules rely on this).
    std::vector<std::pair<uint8_t, rpu::SlotConfig>> staged_configs_;
    std::vector<std::pair<uint8_t, uint8_t>> staged_frees_;     ///< (rpu, slot)
    std::vector<std::pair<uint8_t, uint8_t>> staged_requests_;  ///< (requester, dst)
    std::vector<sim::Ring<uint8_t>> free_slots_;
    uint32_t recv_mask_;
    uint32_t enable_mask_;
    unsigned rr_next_ = 0;

    // Reassembler state (per flow): next expected TCP sequence + held
    // out-of-order packets.
    struct FlowRecord {
        bool seen = false;
        uint64_t next_seq = 0;  ///< ground-truth flow_seq ordering
        std::vector<net::PacketPtr> held;
    };
    std::unordered_map<net::FiveTuple, FlowRecord> flows_;
};

}  // namespace rosebud::lb

#endif  // ROSEBUD_LB_LOAD_BALANCER_H
