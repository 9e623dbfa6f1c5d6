#include "rpu/rpu.h"

#include <algorithm>
#include <cstring>

#include "sim/log.h"

namespace rosebud::rpu {

namespace {

/// Ceiling division for transfer-cycle computation.
uint32_t
div_ceil(uint32_t a, uint32_t b) {
    return (a + b - 1) / b;
}

}  // namespace

sim::ResourceFootprint
accel_manager_footprint(unsigned queue_count) {
    return {.luts = 500 + 75ull * queue_count, .regs = 1900 + 200ull * queue_count};
}

Rpu::Rpu(sim::Kernel& kernel, sim::Stats& stats, const Config& config)
    : sim::Component(kernel, "rpu" + std::to_string(config.id)),
      config_(config),
      stats_(stats),
      imem_(kImemSize / 4),
      dmem_("rpu" + std::to_string(config.id) + ".dmem", kDmemSize),
      pmem_("rpu" + std::to_string(config.id) + ".pmem", kPmemSize),
      amem_("rpu" + std::to_string(config.id) + ".amem", kAmemSize),
      bus_(*this),
      core_("rpu" + std::to_string(config.id) + ".core", bus_),
      slot_pkts_(256),
      rx_fifo_(kernel, name() + ".rx_fifo", config.rx_fifo_depth, kDescWidthBits),
      tx_fifo_(kernel, name() + ".tx_fifo", config.tx_cmd_depth, kDescWidthBits),
      bcast_mem_(kBcastSize, 0),
      // Registered credit: the broadcast network pushes while this RPU's
      // core pops, so the full/empty answer must not depend on tick order.
      bcast_notify_(kernel, name() + ".bcast_notify", config.bcast_notify_depth,
                    kDescWidthBits, 0, sim::CreditPolicy::kRegistered) {
    declare_netlist(kernel);
    // Packet-slot occupancy for the health layer's backlog census: slots
    // are not a sim::Fifo (the DMA engine scatters into slot memory), so
    // the RPU registers the probe itself. occupancy_ counts a transfer
    // from the commit that starts it, and nothing is staged in the host
    // phase, so a host-phase read is always consistent.
    kernel.register_occupancy_probe(name() + ".slots", sim::kNoNet, slot_pkts_.size(),
                                    this, [this] { return size_t(occupancy_); });
    ctr_rx_packets_ = &stats.counter(stat("rx_packets"));
    ctr_rx_bytes_ = &stats.counter(stat("rx_bytes"));
    ctr_rx_bad_slot_ = &stats.counter(stat("rx_bad_slot"));
    ctr_tx_packets_ = &stats.counter(stat("tx_packets"));
    ctr_tx_bytes_ = &stats.counter(stat("tx_bytes"));
    ctr_tx_stall_cycles_ = &stats.counter(stat("tx_stall_cycles"));
    ctr_dropped_packets_ = &stats.counter(stat("dropped_packets"));
}

void
Rpu::declare_netlist(sim::Kernel& kernel) {
    using sim::NetRecord;
    using sim::PortRecord;
    const unsigned link_bits = config_.link_bytes_per_cycle * 8;

    // The ingress link from the distribution fabric (written by Fabric).
    link_in_net_ =
        kernel.declare_net({name() + ".link_in", NetRecord::kLink, link_bits, 1, 0});
    kernel.declare_port({name(), name() + ".link_in", PortRecord::kRead, link_bits, 1});

    // Broadcast delivery lane (written by the messaging network).
    kernel.declare_net({name() + ".bcast_in", NetRecord::kLink, kDescWidthBits, 1, 0});
    kernel.declare_port({name(), name() + ".bcast_in", PortRecord::kRead, kDescWidthBits, 1});

    // Endpoints of the self-declared FIFOs (rx/tx descriptors are produced
    // and consumed inside the RPU; bcast_notify is written by broadcast).
    kernel.declare_port({name(), name() + ".rx_fifo", PortRecord::kWrite,
                         kDescWidthBits, config_.rx_fifo_depth});
    kernel.declare_port({name(), name() + ".rx_fifo", PortRecord::kRead, kDescWidthBits, 0});
    kernel.declare_port({name(), name() + ".tx_fifo", PortRecord::kWrite,
                         kDescWidthBits, config_.tx_cmd_depth});
    kernel.declare_port({name(), name() + ".tx_fifo", PortRecord::kRead, kDescWidthBits, 0});
    kernel.declare_port({name(), name() + ".bcast_notify", PortRecord::kRead,
                         kDescWidthBits, 0});

    // Memory subsystem (Figure 3).
    dmem_.declare_ports(kernel, name());
    pmem_.declare_ports(kernel, name());
    amem_.declare_ports(kernel, name());
}

std::string
Rpu::stat(const char* suffix) const {
    return name() + "." + suffix;
}

void
Rpu::load_firmware(const std::vector<uint32_t>& image, uint32_t entry) {
    if (image.size() > imem_.size()) sim::fatal("firmware image larger than IMEM");
    flush_skipped();
    // Stores never reach IMEM, so only the previous image's words are
    // nonzero: clear those, not the whole 64 KB.
    std::fill_n(imem_.data(), imem_words_, 0u);
    std::copy(image.begin(), image.end(), imem_.data());
    imem_words_ = uint32_t(image.size());
    entry_pc_ = entry;
    core_.icache_invalidate();
    set_idle_watching(false);  // a loop proven on the old image is void
    wake();
}

void
Rpu::attach_accelerator(std::unique_ptr<Accelerator> accel) {
    flush_skipped();
    wake();
    accel_ = std::move(accel);
    if (!accel_) return;
    accel_->reset();
    // Elaborate the accelerator socket on the first attach; a
    // reconfiguration swaps the accelerator behind it.
    const std::string link = name() + ".accel_link";
    if (kernel().net_id(link) != sim::kNoNet) return;
    kernel().declare_net({link, sim::NetRecord::kLink, 32, 1, 0});
    kernel().declare_port({name(), link, sim::PortRecord::kWrite, 32, 1});
    kernel().declare_port({name(), link, sim::PortRecord::kRead, 32, 1});
}

void
Rpu::boot() {
    flush_skipped();
    wake();
    core_.reset(entry_pc_);
    set_idle_watching(false);  // the reset core must prove its own loop
    if (accel_) accel_->reset();
    slots_ = SlotConfig{};
    staged_slots_ = SlotConfig{};
    for (auto& p : slot_pkts_) p.reset();
    rx_fifo_.clear();
    tx_fifo_.clear();
    rx_pkt_.reset();
    rx_free_at_ = 0;
    rx_pending_.reset();
    bcast_pending_.clear();
    tx_cur_.reset();
    tx_out_.reset();
    occupancy_ = 0;
    irq_status_ = 0;
    timer_fire_at_ = sim::kNever;
    slot_resp_.reset();
}

void
Rpu::halt() {
    // Stop fetching; memories and in-flight engines are left intact so the
    // host can inspect state (paper Section 3.4). Accounting is flushed
    // first so the core's cycle counter is exact at the halt point.
    flush_skipped();
    core_.stop();
}

void
Rpu::raise_poke() {
    flush_skipped();
    irq_status_ |= kIrqPoke;
    wake();
}

void
Rpu::raise_evict() {
    flush_skipped();
    irq_status_ |= kIrqEvict;
    wake();
}

void
Rpu::write_memory(uint32_t addr, const std::vector<uint8_t>& bytes) {
    const uint64_t end = uint64_t(addr) + bytes.size();
    mem::Memory* m = nullptr;
    uint32_t base = 0;
    if (addr >= kDmemBase && end <= uint64_t(kDmemBase) + kDmemSize) {
        m = &dmem_;
        base = kDmemBase;
    } else if (addr >= kPmemBase && end <= uint64_t(kPmemBase) + kPmemSize) {
        m = &pmem_;
        base = kPmemBase;
    } else if (addr >= kAmemBase && end <= uint64_t(kAmemBase) + kAmemSize) {
        m = &amem_;
        base = kAmemBase;
    } else {
        sim::fatal("host write_memory: address range not mapped");
    }
    flush_skipped();
    set_idle_watching(false);
    m->write_block(addr - base, bytes.data(), uint32_t(bytes.size()));
    wake();
}

bool
Rpu::rx_ready() const {
    return !rx_pending_ && kernel().handoff_cycle() >= rx_free_at_;
}

void
Rpu::begin_rx(net::PacketPtr pkt) {
    if (!rx_ready()) sim::panic(name() + ": begin_rx while busy");
    rx_pending_ = std::move(pkt);
    handoff();
}

void
Rpu::apply_begin_rx(net::PacketPtr pkt, sim::Cycle start) {
    uint32_t bytes = pkt->size() + (pkt->hash_prepended ? 4 : 0);
    rx_pkt_ = std::move(pkt);
    const uint32_t cycles = div_ceil(bytes == 0 ? 1 : bytes, config_.link_bytes_per_cycle);
    rx_done_at_ = start + cycles - 1;
    rx_free_at_ = start + cycles + config_.ingress_gap_cycles;
    ++occupancy_;
}

void
Rpu::finish_rx() {
    net::PacketPtr pkt = std::move(rx_pkt_);
    uint8_t slot = pkt->dest_slot;
    if (slots_.count == 0 || slot == 0 || slot > slots_.count) {
        // The LB never dispatches before slot config; treat as a drop.
        ctr_rx_bad_slot_->add();
        --occupancy_;
        return;
    }
    uint32_t bytes = pkt->size() + (pkt->hash_prepended ? 4 : 0);
    uint32_t addr = slots_.base + (slot - 1) * slots_.size;
    uint32_t pmem_off = addr - kPmemBase;
    if (addr < kPmemBase || pmem_off + bytes > kPmemSize) {
        sim::panic(name() + ": slot data outside packet memory");
    }

    // Write packet (with optional prepended flow hash) into packet memory.
    if (pkt->hash_prepended) {
        pmem_.write32(pmem_off, pkt->lb_hash);
        pmem_.write_block(pmem_off + 4, pkt->data.data(), pkt->size());
    } else {
        pmem_.write_block(pmem_off, pkt->data.data(), pkt->size());
    }

    // Mirror the first bytes into the core's low-latency header slot.
    uint32_t hdr_bytes = std::min(bytes, slots_.hdr_size);
    uint32_t hdr_addr = slots_.hdr_base + (slot - 1) * slots_.hdr_size;
    if (hdr_addr >= kDmemBase && hdr_addr - kDmemBase + hdr_bytes <= kDmemSize) {
        if (hdr_scratch_.size() < hdr_bytes) hdr_scratch_.resize(hdr_bytes);
        pmem_.read_block(pmem_off, hdr_scratch_.data(), hdr_bytes);
        dmem_.write_block(hdr_addr - kDmemBase, hdr_scratch_.data(), hdr_bytes);
    }

    Desc d;
    d.len = uint16_t(bytes);
    d.slot = slot;
    d.port = uint8_t(pkt->in_iface);
    d.addr = addr;
    if (!rx_fifo_.push(d)) {
        // Cannot happen: FIFO depth >= max slot count, and each slot holds
        // at most one packet.
        sim::panic(name() + ": rx descriptor fifo overflow");
    }
    trace(net::Stage::kRpuRxComplete, *pkt);
    ctr_rx_packets_->add();
    ctr_rx_bytes_->add(pkt->size());
    slot_pkts_[slot] = std::move(pkt);
}

bool
Rpu::core_inputs_frozen() const {
    // Every term is committed state the core can read: no descriptor, no
    // broadcast notification (delivered or staged), no slot response, no
    // masked IRQ, no accelerator (which may act spontaneously). Engines
    // mid-transfer and a running timer do not count: the core cannot see
    // them until they act, and they act only on ticks wake_due() names.
    return !accel_ && rx_fifo_.size() == 0 && bcast_notify_.size() == 0 &&
           bcast_pending_.empty() && !slot_resp_ &&
           (irq_status_ & irq_mask_) == 0;
}

void
Rpu::set_idle_watching(bool on) {
    idle_watching_ = on;
    core_.set_idle_watch(on);
}

bool
Rpu::quiescent() const {
    if (core_.profile()) return false;  // the PC histogram must see every cycle
    if (!core_.halted() && !(idle_watching_ && core_.stable_loop())) return false;
    // The engines may be mid-transfer (wake_due() covers their next event)
    // but must have nothing staged, queued, or retrying every cycle.
    return core_inputs_frozen() && !rx_pending_ && !tx_out_ &&
           tx_fifo_.size() == 0;
}

sim::Cycle
Rpu::wake_due() const {
    sim::Cycle due = timer_fire_at_;
    if (rx_pkt_) due = std::min(due, rx_done_at_);
    if (tx_cur_ && !tx_out_) due = std::min(due, tx_done_at_);
    return due;
}

void
Rpu::on_wake(sim::Cycle skipped_cycles) {
    // The skipped ticks of the engines and the timer were no-ops: their
    // next event is an absolute cycle no earlier than this wake. Only the
    // core's time advances.
    core_.skip_idle_cycles(skipped_cycles);
}

void
Rpu::tick() {
    // Arm/disarm the core's idle-loop watcher as the core-visible inputs
    // freeze and unfreeze; it stays armed across engine transfers, which
    // the core cannot see until they complete. Only while the kernel may
    // actually skip: with telemetry attached every cycle runs anyway and
    // the watcher is pure overhead. While not yet watching, the
    // (multi-FIFO) freeze probe runs every 8th cycle only — arming a few
    // cycles late just delays sleep; the disarm direction stays per-cycle
    // so a stale watch never lingers once inputs move again.
    if (kernel().idle_skip_effective()) {
        if (idle_watching_ || (now() & 7) == 0) {
            const bool frozen = core_inputs_frozen();
            if (frozen != idle_watching_) set_idle_watching(frozen);
        }
    } else if (idle_watching_) {
        set_idle_watching(false);
    }

    // Internal watchdog timer (paper Section 3.4: firmware detects hangs
    // "using internal timer interrupt").
    if (now() == timer_fire_at_) {
        irq_status_ |= kIrqTimer;
        timer_fire_at_ = sim::kNever;
    }
    core_.set_irq((irq_status_ & irq_mask_) != 0);
    core_.tick();

    if (accel_) {
        AccelContext ctx{pmem_, amem_, stats_, now()};
        accel_->tick(ctx);
    }

    // RX engine: one packet in flight at 16 B/cycle, then a setup gap that
    // only rx_ready() observes.
    if (rx_pkt_) {
        // A flit moves on the 128-bit ingress link this cycle.
        if (sim::TelemetrySink* t = kernel().telemetry()) {
            t->net_event(link_in_net_, sim::TelemetrySink::NetEvent::kPop);
        }
        if (now() == rx_done_at_) finish_rx();
    }

    tick_tx();
}

void
Rpu::commit() {
    // A staged begin_rx transfers from the first cycle that sees it.
    if (rx_pending_) apply_begin_rx(std::move(rx_pending_), kernel().handoff_cycle());
    for (const auto& [offset, value] : bcast_pending_) {
        std::memcpy(&bcast_mem_[offset], &value, 4);
    }
    bcast_pending_.clear();
}

void
Rpu::tick_tx() {
    // Stage 3: a fully serialized packet waiting for egress buffer space.
    if (tx_out_) {
        if (egress_ && egress_(tx_out_)) {
            uint8_t slot = tx_cur_->desc.slot;
            ctr_tx_packets_->add();
            ctr_tx_bytes_->add(tx_out_->size());
            tx_out_.reset();
            tx_cur_.reset();
            slot_pkts_[slot].reset();
            --occupancy_;
            if (slot_free_) slot_free_(config_.id, slot);
        } else {
            ctr_tx_stall_cycles_->add();
        }
        return;
    }

    // Stage 2: serializing out of packet memory.
    if (tx_cur_) {
        if (now() >= tx_done_at_) {
            const Desc& d = tx_cur_->desc;
            uint32_t addr = d.addr ? d.addr
                                   : slots_.base + (d.slot - 1) * slots_.size;
            uint32_t off = addr - kPmemBase;
            if (addr < kPmemBase || off + d.len > kPmemSize) {
                sim::panic(name() + ": tx descriptor outside packet memory (addr=" +
                           std::to_string(addr) + " len=" + std::to_string(d.len) +
                           " slot=" + std::to_string(d.slot) + ")");
            }
            net::PacketPtr& src = slot_pkts_[d.slot];
            net::PacketPtr out;
            if (src && src.use_count() == 1) {
                // The slot holds the only reference: the received packet
                // becomes the sent one, byte buffer and all. It already
                // carries what a fresh packet copies from it; clear what a
                // fresh one would not carry.
                out = std::move(src);
                out->hash_prepended = false;
                out->matched_rules.clear();
            } else {
                out = std::make_shared<net::Packet>();
                if (src) {
                    out->id = src->id;
                    out->tx_ns = src->tx_ns;
                    out->mac_rx_cycle = src->mac_rx_cycle;
                    out->flow_class = src->flow_class;
                    out->in_iface = src->in_iface;
                    out->is_attack = src->is_attack;
                    out->flow_seq = src->flow_seq;
                    out->lb_hash = src->lb_hash;
                }
            }
            out->data.resize(d.len);
            pmem_.read_block(off, out->data.data(), d.len);
            out->out_iface = net::Iface(d.port & 3);
            out->dest_rpu = uint8_t(tx_cur_->dest >> 8);
            out->dest_slot = uint8_t(tx_cur_->dest & 0xff);
            tx_out_ = std::move(out);
        }
        return;
    }

    // Stage 1: accept a new send command from firmware. A send or drop is
    // traced on the slot's packet, which still carries the LB's dest_rpu
    // (this RPU); a send from an empty slot has no packet to trace.
    if (!tx_fifo_.empty()) {
        TxCmd cmd = tx_fifo_.pop();
        const net::PacketPtr& held = slot_pkts_[cmd.desc.slot];
        if (cmd.desc.len == 0) {
            // Drop: free the slot without transmitting.
            uint8_t slot = cmd.desc.slot;
            if (held) trace(net::Stage::kFwDrop, *held);
            ctr_dropped_packets_->add();
            slot_pkts_[slot].reset();
            --occupancy_;
            if (slot_free_) slot_free_(config_.id, slot);
            return;
        }
        if (held) trace(net::Stage::kFwSend, *held);
        tx_cur_ = cmd;
        tx_done_at_ = now() + div_ceil(cmd.desc.len, config_.link_bytes_per_cycle);
    }
}

void
Rpu::broadcast_deliver(uint32_t offset, uint32_t value) {
    if (uint64_t(offset) + 4 > kBcastSize) return;
    // The semi-coherent copy updates at commit, so the core never sees a
    // half-cycle value and a sleeper's skipped window replays against the
    // copy as it was.
    bcast_pending_.emplace_back(offset, value);
    handoff();
    if (!bcast_notify_.push({offset, value})) ++bcast_notify_drops_;
}

// --- MMIO -------------------------------------------------------------------

uint32_t
Rpu::io_read(uint32_t offset) {
    switch (offset & ~3u) {
    case kRegRecvLow: return rx_fifo_.empty() ? 0 : rx_fifo_.front().low();
    case kRegRecvHigh: return rx_fifo_.empty() ? 0 : rx_fifo_.front().high();
    case kRegRxReady: return rx_fifo_.empty() ? 0 : 1;
    case kRegDebugLow: return debug_low_;
    case kRegDebugHigh: return debug_high_;
    case kRegCycle: return uint32_t(core_.cycles());
    case kRegCoreId: return config_.id;
    case kRegIrqStatus: return irq_status_ & irq_mask_;
    case kRegBcastAddr: return bcast_notify_.empty() ? 0 : bcast_notify_.front().first;
    case kRegBcastData: return bcast_notify_.empty() ? 0 : bcast_notify_.front().second;
    case kRegBcastReady: return bcast_notify_.empty() ? 0 : 1;
    case kRegLbSlotResp:
        if (slot_resp_ && now() >= slot_resp_ready_cycle_) {
            uint32_t v = *slot_resp_;
            slot_resp_.reset();
            return v;
        }
        return 0;
    default: return 0;
    }
}

void
Rpu::io_write(uint32_t offset, uint32_t value) {
    switch (offset & ~3u) {
    case kRegRecvRelease:
        if (!rx_fifo_.empty()) rx_fifo_.pop();
        break;
    case kRegSendLow:
        send_low_latch_ = value;
        break;
    case kRegSendDest:
        send_dest_latch_ = uint16_t(value);
        break;
    case kRegTimerCmp:
        // Fires on the value-th tick after this one (0 disarms).
        timer_fire_at_ = value ? now() + value : sim::kNever;
        irq_status_ &= ~kIrqTimer;
        break;
    case kRegDebugLow: debug_low_ = value; break;
    case kRegDebugHigh: debug_high_ = value; break;
    case kRegIrqMask: irq_mask_ = value; break;
    case kRegIrqAck: irq_status_ &= ~value; break;
    case kRegSlotCount: staged_slots_.count = value; break;
    case kRegSlotBase: staged_slots_.base = value; break;
    case kRegSlotSize: staged_slots_.size = value; break;
    case kRegHdrBase: staged_slots_.hdr_base = value; break;
    case kRegHdrSize: staged_slots_.hdr_size = value; break;
    case kRegSlotCommit:
        slots_ = staged_slots_;
        if (slots_.count > 250) sim::fatal("slot count exceeds descriptor tag range");
        if (slot_config_cb_) slot_config_cb_(config_.id, slots_);
        break;
    case kRegBcastPop:
        if (!bcast_notify_.empty()) bcast_notify_.pop();
        break;
    case kRegLbSlotReq:
        if (slot_req_) {
            // The LB answers via slot_response() at its commit; the reply
            // register only unlocks after the control-channel round trip
            // (paper Figure 4b), long after the answer has landed.
            slot_req_(config_.id, uint8_t(value));
            slot_resp_ready_cycle_ = now() + 8;
        }
        break;
    default:
        break;
    }
}

// --- bus ---------------------------------------------------------------------

rv::Bus::Access
Rpu::RpuBus::load(uint32_t addr, uint32_t size) {
    Access a;
    Rpu& r = rpu_;
    const uint64_t end = uint64_t(addr) + size;  // an access near 2^32 must not wrap
    if (end <= kImemSize) {
        uint32_t word = r.imem_[addr >> 2];
        a.value = word >> (8 * (addr & 3));
        a.cycles = mem::kBramLoadCycles;
    } else if (addr >= kDmemBase && end <= kDmemBase + kDmemSize) {
        uint32_t off = addr - kDmemBase;
        a.value = size == 1 ? r.dmem_.read8(off)
                            : (size == 2 ? r.dmem_.read16(off) : r.dmem_.read32(off));
        a.cycles = mem::kBramLoadCycles;
    } else if (addr >= kPmemBase && end <= kPmemBase + kPmemSize) {
        uint32_t off = addr - kPmemBase;
        a.value = size == 1 ? r.pmem_.read8(off)
                            : (size == 2 ? r.pmem_.read16(off) : r.pmem_.read32(off));
        a.cycles = mem::kUramLoadCycles;
    } else if (addr >= kAmemBase && end <= kAmemBase + kAmemSize) {
        uint32_t off = addr - kAmemBase;
        a.value = size == 1 ? r.amem_.read8(off)
                            : (size == 2 ? r.amem_.read16(off) : r.amem_.read32(off));
        a.cycles = mem::kUramLoadCycles;
    } else if (addr >= kIoBase && end <= kIoBase + kIoSize) {
        uint32_t word = r.io_read(addr - kIoBase);
        a.value = word >> (8 * (addr & 3));
        a.cycles = mem::kMmioLoadCycles;
    } else if (addr >= kIoExtBase && end <= kIoExtBase + kIoExtSize) {
        uint32_t word = 0;
        if (r.accel_) {
            AccelContext ctx{r.pmem_, r.amem_, r.stats_, r.now()};
            r.accel_->mmio_read((addr - kIoExtBase) & ~3u, word, ctx);
        }
        a.value = word >> (8 * (addr & 3));
        a.cycles = mem::kMmioLoadCycles;
    } else if (addr >= kBcastBase && end <= kBcastBase + kBcastSize) {
        uint32_t off = addr - kBcastBase;
        uint32_t word;
        std::memcpy(&word, &r.bcast_mem_[off & ~3u], 4);
        a.value = word >> (8 * (addr & 3));
        a.cycles = mem::kBramLoadCycles;
    } else {
        a.fault = true;
    }
    return a;
}

rv::Bus::Access
Rpu::RpuBus::store(uint32_t addr, uint32_t size, uint32_t value) {
    Access a;
    Rpu& r = rpu_;
    const uint64_t end = uint64_t(addr) + size;
    if (addr >= kDmemBase && end <= kDmemBase + kDmemSize) {
        uint32_t off = addr - kDmemBase;
        if (size == 1) {
            r.dmem_.write8(off, uint8_t(value));
        } else if (size == 2) {
            r.dmem_.write16(off, uint16_t(value));
        } else {
            r.dmem_.write32(off, value);
        }
        a.cycles = mem::kBramStoreCycles;
    } else if (addr >= kPmemBase && end <= kPmemBase + kPmemSize) {
        uint32_t off = addr - kPmemBase;
        if (size == 1) {
            r.pmem_.write8(off, uint8_t(value));
        } else if (size == 2) {
            r.pmem_.write16(off, uint16_t(value));
        } else {
            r.pmem_.write32(off, value);
        }
        a.cycles = mem::kUramStoreCycles;
    } else if (addr >= kAmemBase && end <= kAmemBase + kAmemSize) {
        uint32_t off = addr - kAmemBase;
        if (size == 1) {
            r.amem_.write8(off, uint8_t(value));
        } else if (size == 2) {
            r.amem_.write16(off, uint16_t(value));
        } else {
            r.amem_.write32(off, value);
        }
        a.cycles = mem::kUramStoreCycles;
    } else if (addr >= kIoBase && end <= kIoBase + kIoSize) {
        uint32_t offset = addr - kIoBase;
        if ((offset & ~3u) == kRegSendHigh) {
            // Enqueue the send command; block the core when the command
            // FIFO is full.
            Rpu::TxCmd cmd;
            cmd.desc = Desc::unpack(r.send_low_latch_, value);
            cmd.dest = r.send_dest_latch_;
            if (!r.tx_fifo_.push(cmd)) {
                a.retry = true;
                return a;
            }
        } else {
            r.io_write(offset, value);
        }
        a.cycles = mem::kMmioStoreCycles;
    } else if (addr >= kIoExtBase && end <= kIoExtBase + kIoExtSize) {
        if (r.accel_) {
            AccelContext ctx{r.pmem_, r.amem_, r.stats_, r.now()};
            r.accel_->mmio_write((addr - kIoExtBase) & ~3u, value, ctx);
        }
        a.cycles = mem::kMmioStoreCycles;
    } else if (addr >= kBcastBase && end <= kBcastBase + kBcastSize) {
        // Semi-coherent broadcast region: the write becomes a message; it
        // blocks while the per-RPU message FIFO is full (paper Sec 6.3).
        if (!r.bcast_send_ || !r.bcast_send_(r.config_.id, addr - kBcastBase, value)) {
            a.retry = true;
            return a;
        }
        a.cycles = mem::kMmioStoreCycles;
    } else {
        a.fault = true;
    }
    return a;
}

uint32_t
Rpu::RpuBus::fetch(uint32_t addr) {
    if (uint64_t(addr) + 4 <= kImemSize) return rpu_.imem_[addr >> 2];
    return 0x00100073;  // ebreak: running off the image halts the core
}

bool
Rpu::RpuBus::watch_safe_read(uint32_t addr) const {
    if (addr >= kIoBase && addr < kIoBase + kIoSize) {
        switch ((addr - kIoBase) & ~3u) {
        case kRegCycle:       // time keeps advancing while "idle"
        case kRegLbSlotResp:  // reading consumes the response
            return false;
        default:
            return true;  // frozen while the core-visible inputs are frozen
        }
    }
    // Accelerator MMIO may mutate on read. The watcher is only armed with
    // no accelerator attached, but classify it anyway.
    if (addr >= kIoExtBase && addr < kIoExtBase + kIoExtSize) return false;
    return true;
}

// --- resources ----------------------------------------------------------------

sim::ResourceFootprint
Rpu::base_resources() const {
    // Memory-subsystem footprint from actual memory provisioning.
    uint64_t bram = (kImemSize + kDmemSize) / 4096;
    uint64_t uram = kPmemSize / 32768;
    unsigned streams = accel_ ? accel_->stream_ports() : 0;
    sim::ResourceFootprint mem_fp{
        .luts = 400 + 55 * bram + 28 * uram + 332ull * streams,
        .regs = 450 + 12 * bram + 6 * uram + 18ull * streams,
        .bram = bram,
        .uram = uram,
    };
    sim::ResourceFootprint core_fp{.luts = 1976 + (accel_ ? 72u : 0u), .regs = 1050};
    sim::ResourceFootprint border{.regs = 1808};  // PR-region boundary registers
    sim::ResourceFootprint fp = core_fp + mem_fp + border;
    if (accel_) fp += accel_manager_footprint(accel_->queue_count());
    return fp;
}

sim::ResourceFootprint
Rpu::resources() const {
    sim::ResourceFootprint fp = base_resources();
    if (accel_) fp += accel_->resources();
    return fp;
}

}  // namespace rosebud::rpu
