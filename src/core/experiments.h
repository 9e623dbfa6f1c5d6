/// \file
/// Reusable experiment harnesses for the paper's evaluation (Sections 6-7).
///
/// Each function builds a fresh System (through build_pipeline for the
/// paper's middleboxes), applies the workload, and measures over a
/// steady-state window — the in-simulator equivalent of the artifact's
/// `make do ...` experiment scripts. The bench binaries in bench/ are thin
/// wrappers that sweep these and print paper-style rows; tests assert the
/// headline shapes on smaller windows.

#ifndef ROSEBUD_CORE_EXPERIMENTS_H
#define ROSEBUD_CORE_EXPERIMENTS_H

#include <cstdint>
#include <vector>

#include "core/system.h"
#include "net/rules.h"
#include "net/tracegen.h"

namespace rosebud::exp {

/// Packet sizes evaluated in Figure 7 (powers of two plus the worst-case
/// 65 B and the common MTUs).
std::vector<uint32_t> figure7_sizes();

// --- Figure 7a/7b: forwarding throughput -------------------------------------

struct ForwardingPoint {
    uint32_t size = 0;
    unsigned rpu_count = 0;
    double offered_gbps = 0;   ///< goodput offered by the tester
    double achieved_gbps = 0;  ///< goodput forwarded back
    double achieved_mpps = 0;
    double line_gbps = 0;      ///< theoretical max goodput at this size
    double line_mpps = 0;
};

struct ForwardingParams {
    unsigned rpu_count = 16;
    uint32_t size = 1024;
    unsigned ports = 2;        ///< 1 = 100 Gbps test, 2 = 200 Gbps test
    double load = 1.0;         ///< fraction of line rate per port
    sim::Cycle warmup = 30'000;
    sim::Cycle window = 120'000;
    SimTuning tuning{};        ///< host speed only; results are identical
};

ForwardingPoint run_forwarding(const ForwardingParams& p);

// --- Figure 7c: round-trip latency --------------------------------------------

struct LatencyPoint {
    uint32_t size = 0;
    double mean_us = 0;
    double min_us = 0;
    double max_us = 0;
    /// Upper bound of the latency histogram bucket holding the p99 (at
    /// most 12.5% above the true p99); mean, min and max are exact.
    double p99_us = 0;
    double eq1_us = 0;  ///< the paper's serialization model (Equation 1)
};

struct LatencyParams {
    unsigned rpu_count = 16;
    uint32_t size = 64;
    double load = 0.05;  ///< 0.05 = "low load"; 1.0 = "maximum load"
    sim::Cycle warmup = 40'000;
    sim::Cycle window = 150'000;
};

LatencyPoint run_latency(const LatencyParams& p);

/// Equation 1 of the paper: est. latency (us) for a packet size, given the
/// measured fixed floor (0.765 us on the paper's hardware).
double eq1_latency_us(uint32_t size, double fixed_us = 0.765);

// --- Section 6.3: inter-RPU messaging -----------------------------------------

struct LoopbackPoint {
    uint32_t size = 0;
    double achieved_gbps = 0;
    double line_gbps = 0;
    double fraction_of_line = 0;
};

/// Two-step forwarding through the loopback channel (100 Gbps offered on
/// one port; half the RPUs relay to the other half).
LoopbackPoint run_loopback(unsigned rpu_count, uint32_t size,
                           sim::Cycle warmup = 30'000, sim::Cycle window = 120'000);

struct BroadcastResult {
    double sparse_min_ns = 0;
    double sparse_max_ns = 0;
    double sparse_mean_ns = 0;
    double saturated_min_ns = 0;
    double saturated_max_ns = 0;
    double saturated_mean_ns = 0;
    uint64_t messages = 0;
};

BroadcastResult run_broadcast(unsigned rpu_count, sim::Cycle window = 100'000);

// --- Section 7.1: IPS case study ------------------------------------------------

enum class IpsMode {
    kHwReorder,  ///< reassembler in the LB, RR policy (pigasus2)
    kSwReorder,  ///< hash LB + software flow table (pigasus)
};

struct IpsPoint {
    uint32_t size = 0;
    IpsMode mode = IpsMode::kHwReorder;
    double achieved_gbps = 0;
    double achieved_mpps = 0;
    double line_gbps = 0;
    double cycles_per_packet = 0;  ///< Figure 9: rpus * clock / rate
    uint64_t matched_to_host = 0;  ///< ground-truth attacks delivered to the host
    uint64_t punted_to_host = 0;   ///< safe packets punted (SW reorder overflow)
    uint64_t expected_attacks = 0; ///< ground truth offered in the same window
};

struct IpsParams {
    IpsMode mode = IpsMode::kHwReorder;
    unsigned rpu_count = 8;
    uint32_t size = 1024;
    double attack_fraction = 0.01;
    double reorder_fraction = 0.003;
    unsigned rule_count = 64;
    uint64_t seed = 42;
    sim::Cycle warmup = 40'000;
    sim::Cycle window = 120'000;
};

IpsPoint run_ips(const IpsParams& p);

// --- Section 7.2: firewall case study --------------------------------------------

struct FirewallPoint {
    uint32_t size = 0;
    double achieved_gbps = 0;
    double line_gbps = 0;
    uint64_t blocked = 0;           ///< packets dropped by the blacklist
    uint64_t expected_blocked = 0;  ///< ground truth
    uint64_t forwarded = 0;
};

struct FirewallParams {
    unsigned rpu_count = 16;
    uint32_t size = 1024;
    double attack_fraction = 0.01;
    size_t blacklist_size = 1050;
    uint64_t seed = 7;
    sim::Cycle warmup = 30'000;
    sim::Cycle window = 120'000;
};

FirewallPoint run_firewall(const FirewallParams& p);

// --- Section 7.1.4: single-RPU cycle accounting ------------------------------------

/// Run one packet type through a single-RPU system at saturation and
/// report the steady-state core cycles consumed per packet (the paper's
/// "simulation results": 61 safe-TCP / 59 safe-UDP / 82 attack).
struct SingleRpuParams {
    IpsMode mode = IpsMode::kHwReorder;
    uint32_t size = 1024;
    bool udp = false;
    bool attack = false;
    unsigned rule_count = 64;
    uint64_t seed = 3;
};

double run_single_rpu_cycles_per_packet(const SingleRpuParams& p);

}  // namespace rosebud::exp

#endif  // ROSEBUD_CORE_EXPERIMENTS_H
