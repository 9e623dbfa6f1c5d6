/// \file
/// Software baselines for the IPS comparison (paper Section 7.1.3).
///
/// SnortModel reproduces the paper's Snort 3 + Hyperscan + AF_PACKET
/// configuration on a Xeon 6130 (32 cores): pattern matching is performed
/// *for real* with the same rule set (Aho-Corasick multi-pattern scan, the
/// same functional semantics Hyperscan provides for literal patterns),
/// while throughput comes from a calibrated multicore cost model — a fixed
/// per-packet software overhead (parse, flow lookup, AF_PACKET descriptor
/// handling) plus a per-byte scan cost. The paper's measured plateau is
/// 4.7-5.6 MPPS across packet sizes; the calibration reproduces both the
/// plateau and its cause (per-packet overhead dominating scan time). The
/// model matches through the rule set's shared compile
/// (net::IdsRuleSet::matcher()).
///
/// `pigasus_original_gbps` is the 100 Gbps line-rate reference of the
/// original single-FPGA Pigasus design.

#ifndef ROSEBUD_BASELINE_SNORT_MODEL_H
#define ROSEBUD_BASELINE_SNORT_MODEL_H

#include <cstdint>
#include <memory>

#include "net/packet.h"
#include "net/rulematch.h"
#include "net/tracegen.h"

namespace rosebud::baseline {

class SnortModel {
 public:
    struct Config {
        unsigned cores = 32;          ///< physical cores (Xeon 6130)
        double per_packet_us = 5.68;  ///< parse + flow + AF_PACKET per packet
        double scan_ns_per_byte = 0.55;  ///< Hyperscan effective literal scan
        double afpacket_share_us = 1.0;  ///< removable via ramdisk replay
        bool use_afpacket = true;
    };

    explicit SnortModel(const net::IdsRuleSet& rules);
    SnortModel(const net::IdsRuleSet& rules, Config config);

    struct Result {
        double mpps = 0;        ///< sustained packet rate, millions/s
        double gbps = 0;        ///< corresponding goodput
        uint64_t packets = 0;   ///< packets functionally scanned
        uint64_t matched = 0;   ///< packets with at least one rule hit
    };

    /// Scan `packets` packets from `gen` (functional matching) and report
    /// the modeled sustained throughput for that packet size.
    Result run(net::TraceGenerator& gen, size_t packets) const;

    /// Modeled packet rate (MPPS) for a given frame size.
    double mpps_for_size(uint32_t frame_size) const;

    /// Functional check: does this packet match any rule?
    bool packet_matches(const net::Packet& pkt) const;

    const Config& config() const { return config_; }

 private:
    std::shared_ptr<const net::RuleMatcher> matcher_;
    Config config_;
};

/// Throughput of the original (100 Gbps, single FPGA) Pigasus for a frame
/// size — the reference line Rosebud doubles.
double pigasus_original_gbps(uint32_t frame_size);

}  // namespace rosebud::baseline

#endif  // ROSEBUD_BASELINE_SNORT_MODEL_H
