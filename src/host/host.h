/// \file
/// Host-side control of a Rosebud instance (paper Sections 3.2, 4.1,
/// Appendix A.6-A.8): the C-library/driver surface a middlebox operator
/// uses. It can load firmware and memories, configure the LB over its
/// 30-bit channel, read status counters, raise poke/evict interrupts, use
/// the 64-bit debug channel, inject/receive packets over the virtual
/// Ethernet interface, and drive the partial-reconfiguration flow.
///
/// PR timing: the drain phase runs in simulation; the MCAP bitstream write
/// is modeled analytically (partial bitstream sized from the PR region's
/// share of the device at the measured ~3.3 MB/s MCAP rate), reproducing
/// the paper's 756 ms average over repeated loads.

#ifndef ROSEBUD_HOST_HOST_H
#define ROSEBUD_HOST_HOST_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/fabric.h"
#include "lb/load_balancer.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace rosebud::host {

/// Policy for the static firmware verifier gate (verify::verify_image) that
/// runs on every firmware load. Mirrors the paper's safety story: hardware
/// memory protection catches bad RPUs at runtime, the verifier refuses to
/// load provably bad images in the first place.
enum class FirmwareCheck {
    kEnforce,  ///< verifier errors abort the load (default)
    kWarn,     ///< verifier errors are logged, load proceeds
    kOff,      ///< no static verification
};

/// Breakdown of one partial-reconfiguration cycle.
struct PrTiming {
    double drain_us = 0;      ///< waiting for in-flight packets (simulated)
    double bitstream_ms = 0;  ///< MCAP partial-bitstream write (modeled)
    double boot_us = 0;       ///< memory load + core boot (simulated)
    double total_ms = 0;
};

class HostContext {
 public:
    HostContext(sim::Kernel& kernel, sim::Stats& stats, lb::LoadBalancer& lb,
                dist::Fabric& fabric, std::vector<rpu::Rpu*> rpus);

    // --- firmware / memory ---------------------------------------------------

    void load_firmware(unsigned rpu, const std::vector<uint32_t>& image, uint32_t entry = 0);
    void load_firmware_all(const std::vector<uint32_t>& image, uint32_t entry = 0);

    /// Set the verifier-gate policy for subsequent firmware loads.
    void set_firmware_check(FirmwareCheck mode) { firmware_check_ = mode; }
    FirmwareCheck firmware_check() const { return firmware_check_; }

    void boot(unsigned rpu);
    void boot_all();

    /// Write into an RPU's address space (DMEM/PMEM/AMEM regions), e.g.
    /// to preload lookup tables before boot — the capability that let the
    /// Pigasus port fill its URAM tables at runtime (Section 7.1.2).
    void write_memory(unsigned rpu, uint32_t addr, const std::vector<uint8_t>& bytes);

    /// Read back an RPU memory range (state dumps for debugging).
    std::vector<uint8_t> read_memory(unsigned rpu, uint32_t addr, uint32_t len) const;

    // --- LB configuration channel --------------------------------------------

    void set_recv_mask(uint32_t mask) { lb_.host_write(lb::kLbRegRecvMask, mask); }

    // --- status & debugging ----------------------------------------------------

    uint64_t counter(const std::string& name) const { return stats_.get(name); }
    void poke(unsigned rpu) { rpus_.at(rpu)->raise_poke(); }
    void evict(unsigned rpu) { rpus_.at(rpu)->raise_evict(); }
    uint32_t debug_low(unsigned rpu) const { return rpus_.at(rpu)->debug_low(); }
    uint32_t debug_high(unsigned rpu) const { return rpus_.at(rpu)->debug_high(); }

    // --- virtual Ethernet -------------------------------------------------------

    /// Inject a packet as if sent through the Corundum NIC interface.
    bool inject(net::PacketPtr pkt) { return fabric_.host_inject(std::move(pkt)); }

    /// Register the receive callback for host-bound packets.
    void set_rx_handler(dist::Fabric::SinkFn fn) { fabric_.set_host_sink(std::move(fn)); }

    // --- partial reconfiguration --------------------------------------------------

    /// Full no-pause reconfiguration flow for one RPU (Appendix A.8):
    /// stop traffic to it, drain, evict+halt, write the new "bitstream"
    /// (accelerator swap), reload firmware, boot, resume traffic.
    PrTiming reconfigure(unsigned rpu,
                         std::function<std::unique_ptr<rpu::Accelerator>()> accel_factory,
                         const std::vector<uint32_t>& image, uint32_t entry, sim::Rng& rng);

    rpu::Rpu& rpu(unsigned idx) { return *rpus_.at(idx); }
    unsigned rpu_count() const { return unsigned(rpus_.size()); }

    // --- production health -----------------------------------------------------

    /// Observer of the reconfigure() flow's phase transitions (phase name,
    /// target RPU). The health layer installs this so the flight recorder
    /// can correlate drop bursts and latency spikes with PR phases.
    using ReconfigObserver = std::function<void(const char* phase, unsigned rpu)>;
    void set_reconfig_observer(ReconfigObserver fn) {
        reconfig_observer_ = std::move(fn);
    }

 private:
    /// Run the static verifier over `image` per the current policy;
    /// sim::fatal on errors when enforcing.
    void gate_firmware(const std::vector<uint32_t>& image, uint32_t entry) const;

    FirmwareCheck firmware_check_ = FirmwareCheck::kEnforce;
    ReconfigObserver reconfig_observer_;
    sim::Kernel& kernel_;
    sim::Stats& stats_;
    lb::LoadBalancer& lb_;
    dist::Fabric& fabric_;
    std::vector<rpu::Rpu*> rpus_;
};

}  // namespace rosebud::host

#endif  // ROSEBUD_HOST_HOST_H
