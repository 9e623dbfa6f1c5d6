/// \file
/// Golden dataplane oracle: an untimed, purely functional reference model
/// of the end-to-end Rosebud pipeline. Given an input frame and the
/// middlebox configuration, it predicts the packet's disposition —
/// forwarded out the other port, delivered to the host, or dropped (and
/// why) — plus the exact (or structurally constrained) output bytes.
///
/// The oracle deliberately re-implements every stage from the packet
/// bytes up: prefix matching for the firewall, brute-force content
/// scanning for the Pigasus ruleset, a bit-serial CRC32C for the flow
/// hash, RFC 1624 checksum arithmetic for NAT. None of it shares code
/// with the timed model, so a bug in an accelerator or in firmware shows
/// up as a divergence instead of being faithfully mirrored. The
/// scoreboard (oracle/scoreboard.h) diffs these predictions against the
/// simulated system online.

#ifndef ROSEBUD_ORACLE_ORACLE_H
#define ROSEBUD_ORACLE_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "accel/nat.h"
#include "core/pipeline.h"
#include "lb/load_balancer.h"
#include "net/packet.h"
#include "net/rules.h"

namespace rosebud::oracle {

// The dataplane being modeled is one of the builder's pipelines
// (core/pipeline.h); these keep the oracle:: spellings working.
using rosebud::parse_pipeline;
using rosebud::Pipeline;
using rosebud::pipeline_name;

/// Everything the oracle needs to know about the device under test.
/// Pointers are borrowed and must outlive the oracle.
struct OracleConfig {
    Pipeline pipeline = Pipeline::kForwarder;
    lb::Policy lb_policy = lb::Policy::kRoundRobin;
    unsigned rpu_count = 8;
    const net::Blacklist* blacklist = nullptr;  ///< kFirewall
    const net::IdsRuleSet* rules = nullptr;     ///< kPigasus*
    accel::NatEngine::Params nat{};             ///< kNat
};

/// The oracle's verdict for one input frame.
struct Prediction {
    enum class Outcome : uint8_t {
        kForwardWire,  ///< out the other physical port
        kDeliverHost,  ///< up the virtual Ethernet interface
        kDrop,         ///< firmware drop (slot freed, nothing emitted)
    };
    enum class DropReason : uint8_t {
        kNone,
        kNonIp,          ///< firewall/IDS firmware drops non-IPv4/-TCP/UDP
        kBlacklistedSrc, ///< firewall blacklist hit
        kNatUnmappable,  ///< NAT table full / inbound with no mapping
    };

    Outcome outcome = Outcome::kForwardWire;
    DropReason drop_reason = DropReason::kNone;
    net::Iface out_iface = net::Iface::kPort0;  ///< valid for kForwardWire

    /// Exact expected output bytes when `exact_bytes`; otherwise the
    /// output is validated structurally by DataplaneOracle::check_output
    /// (Pigasus host records carry alignment padding of unspecified
    /// bytes; NAT allocates ports dynamically).
    std::vector<uint8_t> out_bytes;
    bool exact_bytes = true;

    /// Half-open [offset, offset+len) byte ranges of out_bytes exempt
    /// from exact comparison (e.g. the NAT-allocated source port).
    struct Wildcard {
        uint32_t offset = 0;
        uint32_t len = 0;
    };
    std::vector<Wildcard> wildcards;

    /// Rule sids the IDS must report, ascending (kDeliverHost only).
    std::vector<uint32_t> matched_sids;

    /// Software-reorder TCP packets may legitimately be punted to the
    /// host unscanned (flow-table collision / resync / overflow); a host
    /// delivery in hash+frame punt format is then acceptable even when
    /// the primary prediction is kForwardWire.
    bool may_punt_to_host = false;

    uint32_t lb_hash = 0;         ///< expected Packet::lb_hash (hash LB)
    bool hash_prepended = false;  ///< expected Packet::hash_prepended

    bool nat_outbound = false;  ///< output checked with port wildcard + map rules
    bool nat_inbound = false;   ///< drop OR structurally-valid reverse rewrite
};

/// The untimed reference model. Construction validates that the
/// (pipeline, lb_policy) combination is one the firmware actually
/// supports — e.g. the firewall firmware parses at fixed offsets and is
/// incompatible with the hash LB's prepended word — and fatals otherwise.
class DataplaneOracle {
 public:
    explicit DataplaneOracle(const OracleConfig& cfg);

    /// Predict the disposition of one frame arriving on `in_iface`.
    Prediction predict(const std::vector<uint8_t>& frame, net::Iface in_iface) const;

    /// Validate actual output bytes against a prediction. `in_frame` is
    /// the original input frame (needed for structural checks), `to_host`
    /// selects wire vs host framing rules. On mismatch returns false and
    /// explains in `why`.
    bool check_output(const Prediction& pred, const std::vector<uint8_t>& in_frame,
                      const std::vector<uint8_t>& out, bool to_host,
                      std::string* why) const;

    const OracleConfig& config() const { return cfg_; }

    // --- reference stages (independent implementations, unit-testable) ------

    /// Linear scan of the blacklist prefixes (vs the device's two-stage
    /// 9+15-bit split).
    static bool ref_prefix_match(const net::Blacklist& bl, uint32_t ip);

    /// Brute-force rule evaluation: proto + dst-port constraints and
    /// every content present (case-folded when nocase), no fast-pattern
    /// pre-filter. Returns matching sids ascending.
    static std::vector<uint32_t> ref_rule_match(const net::IdsRuleSet& rules,
                                                const uint8_t* payload, size_t len,
                                                uint16_t dst_port, bool is_tcp);

    /// Bit-serial CRC32C (vs the device's table-driven implementation).
    static uint32_t ref_crc32c(const uint8_t* data, size_t len);

    /// Symmetric five-tuple flow hash over the canonical 13-byte buffer;
    /// must equal net::packet_flow_hash for any frame.
    static uint32_t ref_flow_hash(const std::vector<uint8_t>& frame);

    /// Hash-policy steering: index hash % popcount(eligible) into the set
    /// bits of `eligible_mask` (recv & enable, restricted to rpu_count).
    /// Returns 0xff when no RPU is eligible.
    static unsigned ref_hash_steer(uint32_t hash, uint32_t eligible_mask,
                                   unsigned rpu_count);

 private:
    Prediction predict_pigasus(const std::vector<uint8_t>& frame,
                               net::Iface other) const;
    Prediction predict_nat(const std::vector<uint8_t>& frame, net::Iface other) const;

    OracleConfig cfg_;
};

}  // namespace rosebud::oracle

#endif  // ROSEBUD_ORACLE_ORACLE_H
