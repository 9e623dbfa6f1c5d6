/// \file
/// IDS rule matching shared by the Pigasus accelerator model and the Snort
/// baseline.
///
/// The rule set compiles into two fast-pattern automata (case-sensitive and
/// `nocase`). A payload is scanned by both; each rule whose fast pattern
/// hit is then verified once against the packet's protocol, its
/// destination port and every content of the rule.
///
/// A matcher is immutable once built. IdsRuleSet::matcher() builds one per
/// rule set and shares it, so one compile serves every RPU. The matcher
/// keeps its own copy of the rules it verifies against, not a rule set, so
/// it never holds a set that holds it.

#ifndef ROSEBUD_NET_RULEMATCH_H
#define ROSEBUD_NET_RULEMATCH_H

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/patmatch.h"
#include "net/rules.h"

namespace rosebud::net {

class RuleMatcher {
 public:
    explicit RuleMatcher(std::vector<IdsRule> rules);

    /// Replace `sids` with the ascending sids of every rule that matches
    /// the payload. `hits` is scratch: a caller that keeps it (and `sids`)
    /// across calls matches without allocating.
    void match(const uint8_t* payload, size_t len, FlowClass proto, uint16_t dst_port,
               std::vector<uint32_t>& sids, std::vector<PatternMatch>& hits) const;

 private:
    std::vector<IdsRule> rules_;
    AhoCorasick exact_;
    AhoCorasick nocase_{true};
};

}  // namespace rosebud::net

#endif  // ROSEBUD_NET_RULEMATCH_H
