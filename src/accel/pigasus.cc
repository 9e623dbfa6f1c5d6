#include "accel/pigasus.h"

namespace rosebud::accel {

namespace {

/// Destination port from the raw L4 port word as firmware passes it: the
/// first four bytes of the TCP/UDP header read as a little-endian 32-bit
/// load of network-order bytes.
uint16_t
dst_port_of(uint32_t raw) {
    return uint16_t((((raw >> 16) & 0xff) << 8) | ((raw >> 24) & 0xff));
}

}  // namespace

PigasusMatcher::PigasusMatcher(const net::IdsRuleSet& rules)
    : PigasusMatcher(rules, Params{}) {}

PigasusMatcher::PigasusMatcher(const net::IdsRuleSet& rules, Params params)
    : matcher_(rules.matcher()), params_(params) {
    job_queue_.reserve(params_.job_queue_depth);
    result_fifo_.reserve(params_.result_fifo_depth);
}

void
PigasusMatcher::load_rules(const net::IdsRuleSet& rules) {
    matcher_ = rules.matcher();
}

void
PigasusMatcher::reset() {
    job_queue_.clear();
    result_fifo_.clear();
    pending_results_.clear();
    busy_ = false;
    results_pending_ = false;
    staging_ = Job{};
    jobs_counter_ = nullptr;
    matches_counter_ = nullptr;
}

void
PigasusMatcher::match(const uint8_t* payload, size_t len, uint32_t raw_ports, bool is_tcp,
                      std::vector<uint32_t>& sids,
                      std::vector<net::PatternMatch>& hits) const {
    // The port-matcher stage sees one protocol group: TCP or UDP.
    matcher_->match(payload, len, is_tcp ? net::FlowClass::kTcp : net::FlowClass::kUdp,
                    dst_port_of(raw_ports), sids, hits);
}

std::vector<uint32_t>
PigasusMatcher::match_payload(const uint8_t* payload, size_t len, uint32_t raw_ports,
                              bool is_tcp) const {
    std::vector<uint32_t> sids;
    std::vector<net::PatternMatch> hits;
    match(payload, len, raw_ports, is_tcp, sids, hits);
    return sids;
}

void
PigasusMatcher::tick(rpu::AccelContext& ctx) {
    // Drain completed results into the (bounded) result FIFO.
    if (results_pending_) {
        while (!pending_results_.empty() &&
               result_fifo_.size() < params_.result_fifo_depth) {
            result_fifo_.push_back(pending_results_.front());
            pending_results_.erase(pending_results_.begin());
        }
        if (pending_results_.empty()) results_pending_ = false;
    }

    if (busy_) {
        if (ctx.now_cycles >= done_at_) {
            finish_job(ctx);
            busy_ = false;
        }
        return;
    }

    if (!job_queue_.empty() && !results_pending_) {
        active_ = job_queue_.front();
        job_queue_.erase(job_queue_.begin());
        uint64_t stream_cycles =
            (uint64_t(active_.len) + params_.engines - 1) / params_.engines;
        done_at_ = ctx.now_cycles + params_.dequeue_cycles + stream_cycles +
                   params_.pipeline_cycles;
        busy_ = true;
    }
}

void
PigasusMatcher::finish_job(rpu::AccelContext& ctx) {
    // Scan the payload in place through the accelerator's dedicated URAM
    // port. A window outside packet memory yields only the end marker.
    uint32_t off = active_.addr;
    if (off >= 0x01000000) off -= 0x01000000;  // full address -> PMEM offset
    sids_.clear();
    if (uint64_t(off) + active_.len <= ctx.pmem.size()) {
        bool is_tcp = active_.state_h != 0;  // firmware convention (Appendix B)
        match(ctx.pmem.bytes().data() + off, active_.len, active_.ports, is_tcp, sids_, hits_);
    }

    pending_results_.clear();
    for (uint32_t sid : sids_) pending_results_.push_back({sid, active_.slot});
    pending_results_.push_back({0, active_.slot});  // end-of-packet marker
    results_pending_ = true;
    if (!jobs_counter_) {
        jobs_counter_ = &ctx.stats.counter("pigasus.jobs");
        matches_counter_ = &ctx.stats.counter("pigasus.matches");
    }
    jobs_counter_->add();
    matches_counter_->add(sids_.size());
}

bool
PigasusMatcher::mmio_read(uint32_t offset, uint32_t& value, rpu::AccelContext& ctx) {
    (void)ctx;
    switch (offset) {
    case kPigRegMatch:
        value = result_fifo_.empty() ? 0 : 1;
        return true;
    case kPigRegSlot:
        value = result_fifo_.empty() ? 0 : result_fifo_.front().slot;
        return true;
    case kPigRegRuleId:
        value = result_fifo_.empty() ? 0 : result_fifo_.front().rule_id;
        return true;
    case kPigRegDmaStat:
        value = (busy_ ? 1u : 0u) | (result_fifo_.empty() ? 0u : 1u << 8);
        return true;
    default:
        return false;
    }
}

bool
PigasusMatcher::mmio_write(uint32_t offset, uint32_t value, rpu::AccelContext& ctx) {
    (void)ctx;
    switch (offset) {
    case kPigRegCtrl:
        if (value == 1) {
            if (job_queue_.size() < params_.job_queue_depth) {
                job_queue_.push_back(staging_);
            } else {
                // The wrapper FIFO bounds firmware run-ahead; a full queue
                // silently drops the kick in hardware, so model the same
                // (firmware sized to never hit this).
                ctx.stats.counter("pigasus.job_queue_overflow").add();
            }
        } else if (value == 2) {
            if (!result_fifo_.empty()) result_fifo_.erase(result_fifo_.begin());
        }
        return true;
    case kPigRegDmaLen: staging_.len = value; return true;
    case kPigRegDmaAddr: staging_.addr = value; return true;
    case kPigRegPorts: staging_.ports = value; return true;
    case kPigRegStateL: staging_.state_l = value; return true;
    case kPigRegStateH: staging_.state_h = value; return true;
    case kPigRegSlot: staging_.slot = uint8_t(value); return true;
    default:
        return false;
    }
}

sim::ResourceFootprint
PigasusMatcher::resources() const {
    // Calibrated to Table 3 at 16 engines (36012 LUTs, 49364 FFs, 56 BRAM,
    // 22 URAM, 80 DSP); scales with engine count, matching the paper's
    // observation that halving engines from 32 let the design fit.
    uint64_t e = params_.engines;
    return {.luts = 1200 + 2176 * e,
            .regs = 2500 + 2929 * e,
            .bram = 8 + 3 * e,
            .uram = 6 + e,
            .dsp = 5 * e};
}

}  // namespace rosebud::accel
