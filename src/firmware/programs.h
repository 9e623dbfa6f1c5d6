/// \file
/// Firmware programs for the RISC-V cores (paper Appendices B and C).
///
/// Each function assembles a real RV32IM program via rv::Assembler; no
/// cross-compiler is needed. The programs mirror the paper's C firmware:
///
///  * forwarder            — the minimal receive/release/send loop whose
///                           16-cycle cost sets the 250/125 MPPS caps of
///                           Section 6.1;
///  * two_step_forwarder   — the loopback benchmark of Section 6.3: half
///                           the RPUs relay packets to a partner RPU over
///                           the loopback channel, the partner returns
///                           them to the wire;
///  * firewall             — Appendix C: parse Ethernet/IPv4, look the
///                           source IP up in the blacklist accelerator,
///                           drop on match, forward otherwise;
///  * pigasus_hw_reorder   — Appendix B: parse headers, feed the Pigasus
///                           accelerator, drain matches (to host) and
///                           end-of-packet markers (forward);
///  * pigasus_sw_reorder   — the Section 7.1.2 variant: TCP flow
///                           reordering in software using a 32K-entry
///                           x 16 B flow table in the packet-memory
///                           scratchpad, keyed by the LB-prepended hash;
///  * broadcast_sender/broadcast_sink — Section 6.3 messaging benchmarks:
///                           timestamped writes into the broadcast region,
///                           latency accumulated in debug registers.

#ifndef ROSEBUD_FIRMWARE_PROGRAMS_H
#define ROSEBUD_FIRMWARE_PROGRAMS_H

#include <cstdint>
#include <vector>

namespace rosebud::fwlib {

/// An assembled firmware image.
struct Program {
    std::vector<uint32_t> image;
    uint32_t entry = 0;
};

/// Slot provisioning shared by the programs (paper default: 32 slots of
/// 16 KB, headers in the upper half of DMEM, 128 B each).
struct SlotParams {
    uint32_t count = 32;
    uint32_t size = 16 * 1024;
};

/// `hash_prepended` must match the LB configuration, as for nat(): the
/// hash policy prepends a 4-byte flow hash that the firmware leaves out of
/// the sent frame, at two more instructions per packet.
Program forwarder(const SlotParams& slots = {}, bool hash_prepended = false);

/// `rpu_count` determines the partner mapping (i <-> i + rpu_count/2).
Program two_step_forwarder(unsigned rpu_count, const SlotParams& slots = {});

Program firewall(const SlotParams& slots = SlotParams{16, 16 * 1024});

Program pigasus_hw_reorder(const SlotParams& slots = {});

/// `reorder_cap` bounds how many packet slots may sit in the software
/// reorder buffer (paper: "up to half of our packet slots (e.g., 16)").
Program pigasus_sw_reorder(const SlotParams& slots = {}, unsigned reorder_cap = 16);

/// NAT middlebox firmware: parse, hand the packet to the NAT engine for
/// in-place header rewriting, forward translated/pass-through packets out
/// the other port, drop unmappable ones. A third middlebox built on the
/// same firmware skeleton as the paper's two case studies.
/// `hash_prepended` must match the LB configuration: the hash policy
/// prepends a 4-byte flow hash that the firmware strips before the
/// engine sees the frame and before wire forwarding.
Program nat(const SlotParams& slots = SlotParams{16, 16 * 1024},
            bool hash_prepended = false);

/// First stage of a heterogeneous middlebox chain (paper Section 4.4:
/// "a processing chain of heterogeneous RPUs with different accelerators
/// and capabilities"): runs the firewall check and relays surviving
/// packets to the partner RPU (id + rpu_count/2) over the loopback
/// channel, where a different accelerator (e.g. the Pigasus matcher with
/// its own firmware) takes over.
Program chained_firewall(unsigned rpu_count, const SlotParams& slots = {});

/// Fault-injection fixture for the forward-progress watchdog: announces
/// its packet slots like a healthy image (so the LB keeps assigning
/// traffic to it) and then spins forever without ever reading RECV or
/// releasing a descriptor — a firmware busy-loop wedge. The static
/// verifier flags the unbounded loop, so loading it requires
/// FirmwareCheck::kWarn/kOff (the same gate-lowering idiom as the other
/// failure-injection tests).
Program busy_loop(const SlotParams& slots = {});

/// Broadcast sender: writes its cycle counter into the broadcast region
/// every `period_cycles` (0 = as fast as possible, the saturated
/// measurement). The receiver side of the measurement is broadcast_sink,
/// which accumulates {sum of latencies, count} into DEBUG_LOW/DEBUG_HIGH.
Program broadcast_sender(uint32_t period_cycles);

Program broadcast_sink();

}  // namespace rosebud::fwlib

#endif  // ROSEBUD_FIRMWARE_PROGRAMS_H
