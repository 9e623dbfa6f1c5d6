#include "host/host.h"

#include "rpu/descriptor.h"
#include "sim/log.h"
#include "sim/resources.h"
#include "verify/verifier.h"

namespace rosebud::host {

HostContext::HostContext(sim::Kernel& kernel, sim::Stats& stats, lb::LoadBalancer& lb,
                         dist::Fabric& fabric, std::vector<rpu::Rpu*> rpus)
    : kernel_(kernel), stats_(stats), lb_(lb), fabric_(fabric), rpus_(std::move(rpus)) {}

void
HostContext::gate_firmware(const std::vector<uint32_t>& image, uint32_t entry) const {
    if (firmware_check_ == FirmwareCheck::kOff) return;
    verify::Options opts;
    opts.entry = entry;
    verify::Report report = verify::verify_image(image, opts);
    if (report.ok()) return;
    std::string msg = "firmware rejected by static verifier (" +
                      std::to_string(report.errors()) + " error(s)):\n" +
                      report.summary();
    if (firmware_check_ == FirmwareCheck::kEnforce) {
        sim::fatal(msg);
    } else {
        sim::warn(msg);
    }
}

void
HostContext::load_firmware(unsigned rpu, const std::vector<uint32_t>& image, uint32_t entry) {
    gate_firmware(image, entry);
    rpus_.at(rpu)->load_firmware(image, entry);
}

void
HostContext::load_firmware_all(const std::vector<uint32_t>& image, uint32_t entry) {
    gate_firmware(image, entry);  // verify once, not once per RPU
    for (unsigned i = 0; i < rpus_.size(); ++i) rpus_.at(i)->load_firmware(image, entry);
}

void
HostContext::boot(unsigned rpu) {
    rpus_.at(rpu)->boot();
}

void
HostContext::boot_all() {
    for (auto* r : rpus_) r->boot();
}

void
HostContext::write_memory(unsigned rpu, uint32_t addr, const std::vector<uint8_t>& bytes) {
    rpus_.at(rpu)->write_memory(addr, bytes);
}

std::vector<uint8_t>
HostContext::read_memory(unsigned rpu, uint32_t addr, uint32_t len) const {
    rpu::Rpu& r = *rpus_.at(rpu);
    using namespace rosebud::rpu;
    std::vector<uint8_t> out(len);
    const uint64_t end = uint64_t(addr) + len;
    if (addr >= kDmemBase && end <= kDmemBase + kDmemSize) {
        r.dmem().read_block(addr - kDmemBase, out.data(), len);
    } else if (addr >= kPmemBase && end <= kPmemBase + kPmemSize) {
        r.pmem().read_block(addr - kPmemBase, out.data(), len);
    } else if (addr >= kAmemBase && end <= kAmemBase + kAmemSize) {
        r.amem().read_block(addr - kAmemBase, out.data(), len);
    } else {
        sim::fatal("host read_memory: address range not mapped");
    }
    return out;
}

PrTiming
HostContext::reconfigure(unsigned rpu_idx,
                         std::function<std::unique_ptr<rpu::Accelerator>()> accel_factory,
                         const std::vector<uint32_t>& image, uint32_t entry, sim::Rng& rng) {
    PrTiming t;
    rpu::Rpu& target = *rpus_.at(rpu_idx);
    auto phase = [&](const char* name) {
        if (reconfig_observer_) reconfig_observer_(name, rpu_idx);
    };

    // 0. Verify the replacement image up front so a bad one fails the
    //    reconfiguration before traffic is stopped or the RPU drained.
    gate_firmware(image, entry);

    // 1. Tell the LB to stop sending traffic to this RPU.
    uint32_t mask = lb_.recv_mask();
    lb_.host_write(lb::kLbRegRecvMask, mask & ~(1u << rpu_idx));
    phase("stop_traffic");

    // 2. Drain: wait until no packets remain inside the RPU.
    sim::Cycle drain_start = kernel_.now();
    bool drained = kernel_.run_until([&] { return target.occupancy() == 0; }, 2'000'000);
    if (!drained) sim::warn("reconfigure: RPU did not drain; proceeding anyway");
    t.drain_us = sim::cycles_to_us(kernel_.now() - drain_start);
    phase(drained ? "drain_done" : "drain_timeout");

    // 3. Evict interrupt, then halt the core.
    target.raise_evict();
    kernel_.run(64);
    target.halt();

    // 4. Write the partial bitstream over MCAP. The region's bitstream
    //    size scales with its share of the device; MCAP sustains ~3.3
    //    MB/s (it moves configuration frames through PCIe config space).
    constexpr double kDeviceBitstreamBytes = 107e6;  // XCVU9P full image
    double region_share =
        double(target.base_resources().luts + 23298) / double(sim::kXcvu9p.luts);
    double bitstream_bytes = kDeviceBitstreamBytes * region_share;
    double mcap_rate = 3.35e6 * (1.0 + (rng.uniform() - 0.5) * 0.06);
    t.bitstream_ms = bitstream_bytes / mcap_rate * 1e3;
    phase("bitstream_write");

    // 5. Swap the accelerator, reload firmware, boot, let it settle.
    if (accel_factory) target.attach_accelerator(accel_factory());
    target.load_firmware(image, entry);
    sim::Cycle boot_start = kernel_.now();
    target.boot();
    kernel_.run_until([&] { return target.slot_config().count != 0 || target.core_halted(); },
                      50'000);
    t.boot_us = sim::cycles_to_us(kernel_.now() - boot_start);
    phase("boot_done");

    // 6. Resume traffic.
    lb_.host_write(lb::kLbRegRecvMask, mask);
    phase("resume");

    t.total_ms = t.drain_us / 1e3 + t.bitstream_ms + t.boot_us / 1e3;
    stats_.counter("host.pr_loads").add();
    return t;
}

}  // namespace rosebud::host
