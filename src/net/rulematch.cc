#include "net/rulematch.h"

#include <algorithm>

namespace rosebud::net {

namespace {

bool
contains(const uint8_t* hay, size_t len, const ContentPattern& c) {
    const uint8_t* end = hay + len;
    if (!c.nocase) return std::search(hay, end, c.bytes.begin(), c.bytes.end()) != end;
    return std::search(hay, end, c.bytes.begin(), c.bytes.end(), [](uint8_t a, uint8_t b) {
               return fold_case(a) == fold_case(b);
           }) != end;
}

}  // namespace

RuleMatcher::RuleMatcher(std::vector<IdsRule> rules) : rules_(std::move(rules)) {
    for (size_t i = 0; i < rules_.size(); ++i) {
        const ContentPattern& fp = rules_[i].fast_pattern();
        (fp.nocase ? nocase_ : exact_).add_pattern(fp.bytes, uint32_t(i));
    }
    exact_.finalize();
    nocase_.finalize();
}

void
RuleMatcher::match(const uint8_t* payload, size_t len, FlowClass proto, uint16_t dst_port,
                   std::vector<uint32_t>& sids, std::vector<PatternMatch>& hits) const {
    sids.clear();
    hits.clear();
    exact_.scan(payload, len, hits);
    nocase_.scan(payload, len, hits);

    // Verify each candidate rule once, however often its fast pattern hit.
    std::sort(hits.begin(), hits.end(), [](const PatternMatch& a, const PatternMatch& b) {
        return a.pattern_id < b.pattern_id;
    });
    for (size_t i = 0; i < hits.size(); ++i) {
        if (i > 0 && hits[i].pattern_id == hits[i - 1].pattern_id) continue;
        const IdsRule& rule = rules_[hits[i].pattern_id];
        if (rule.proto == RuleProto::kTcp && proto != FlowClass::kTcp) continue;
        if (rule.proto == RuleProto::kUdp && proto != FlowClass::kUdp) continue;
        if (rule.dst_port && *rule.dst_port != dst_port) continue;
        bool all = std::all_of(rule.contents.begin(), rule.contents.end(),
                               [&](const ContentPattern& c) { return contains(payload, len, c); });
        if (all) sids.push_back(rule.sid);
    }
    std::sort(sids.begin(), sids.end());
}

}  // namespace rosebud::net
