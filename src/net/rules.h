/// \file
/// Rule substrates for the two case studies.
///
/// * IdsRuleSet — a simplified Snort rule format (the subset Pigasus's
///   fast-pattern matcher consumes: protocol, optional destination port,
///   one or more `content` byte patterns, an `sid`). Parsed from text or
///   synthesized deterministically for experiments, mirroring the paper's
///   "packet trace based on the ruleset used for the generation of the
///   Pigasus accelerator". A rule set owns its compile: matcher() builds
///   the fast-pattern automata once and hands every caller (every RPU's
///   Pigasus model, the Snort baseline) the same read-only copy.
/// * Blacklist — the firewall case study's IP blacklist (1050 entries from
///   the "emerging threats" rules in the paper), stored as prefixes and
///   queried in the same 9-bit-then-15-bit two-stage split the generated
///   Verilog used.

#ifndef ROSEBUD_NET_RULES_H
#define ROSEBUD_NET_RULES_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/random.h"

namespace rosebud::net {

class RuleMatcher;

/// Protocol selector in a rule header.
enum class RuleProto : uint8_t { kAny, kTcp, kUdp };

/// One content pattern within a rule (already de-hexed).
struct ContentPattern {
    std::vector<uint8_t> bytes;
    bool nocase = false;
};

/// A simplified Snort rule.
struct IdsRule {
    uint32_t sid = 0;
    RuleProto proto = RuleProto::kAny;
    std::optional<uint16_t> dst_port;  ///< nullopt = any
    std::vector<ContentPattern> contents;
    std::string msg;

    /// The "fast pattern": the longest content, which the hardware
    /// fast-pattern matcher keys on (as Pigasus/Snort do).
    const ContentPattern& fast_pattern() const;
};

/// A parsed/synthesized collection of IDS rules.
class IdsRuleSet {
 public:
    /// Parse rules in the simplified Snort syntax, e.g.
    ///   alert tcp any any -> any 80 (msg:"exploit"; content:"evil"; sid:7;)
    /// Unknown options are ignored; lines starting with '#' are comments.
    /// Throws sim::FatalError on malformed rules.
    static IdsRuleSet parse(const std::string& text);

    /// Deterministically synthesize `count` rules with random printable
    /// patterns of length [min_len, max_len] (default mirrors typical
    /// Snort fast patterns).
    static IdsRuleSet synthesize(size_t count, sim::Rng& rng, size_t min_len = 6,
                                 size_t max_len = 16);

    const std::vector<IdsRule>& rules() const { return rules_; }
    size_t size() const { return rules_.size(); }
    const IdsRule& at(size_t i) const { return rules_[i]; }

    /// Look up a rule by sid; nullptr if absent.
    const IdsRule* find_sid(uint32_t sid) const;

    /// Append a rule. Drops this set's compile; copies taken earlier keep
    /// theirs.
    void add(IdsRule r) {
        rules_.push_back(std::move(r));
        compiled_.reset();
    }

    /// The compiled matcher for these rules, built on first use and then
    /// shared, read-only, by every caller and by every copy of this set
    /// until one of them is modified. A holder keeps its matcher after the
    /// set is gone. The lazy build is not thread-safe; nothing in the
    /// simulator calls it from more than one thread.
    std::shared_ptr<const RuleMatcher> matcher() const;

 private:
    std::vector<IdsRule> rules_;
    mutable std::shared_ptr<const RuleMatcher> compiled_;
};

/// The firewall blacklist: a set of IPv4 prefixes.
class Blacklist {
 public:
    struct Entry {
        uint32_t prefix = 0;  ///< host order, low bits zeroed
        uint8_t length = 32;  ///< prefix length in bits
    };

    /// Parse one entry per line: "1.2.3.4", "1.2.3.0/24", or the
    /// emerging-threats style "block drop from 1.2.3.4 to any".
    /// '#' comments and blank lines are skipped.
    static Blacklist parse(const std::string& text);

    /// Synthesize `count` deterministic /32 entries (the paper's list has
    /// 1050 host entries).
    static Blacklist synthesize(size_t count, sim::Rng& rng);

    void add(uint32_t prefix, uint8_t length = 32);

    /// Reference (software) lookup: does `ip` match any entry?
    bool contains(uint32_t ip) const;

    const std::vector<Entry>& entries() const { return entries_; }
    size_t size() const { return entries_.size(); }

 private:
    std::vector<Entry> entries_;
};

}  // namespace rosebud::net

#endif  // ROSEBUD_NET_RULES_H
