#include "net/rules.h"

#include <cctype>
#include <sstream>

#include "net/headers.h"
#include "net/rulematch.h"
#include "sim/log.h"

namespace rosebud::net {

namespace {

/// Split "content" option payload, handling |AB CD| hex escapes.
std::vector<uint8_t>
decode_content(const std::string& s) {
    std::vector<uint8_t> out;
    size_t i = 0;
    while (i < s.size()) {
        if (s[i] == '|') {
            size_t end = s.find('|', i + 1);
            if (end == std::string::npos) sim::fatal("unterminated hex in content: " + s);
            std::string hex = s.substr(i + 1, end - i - 1);
            std::istringstream hs(hex);
            std::string byte;
            while (hs >> byte) {
                out.push_back(uint8_t(std::stoul(byte, nullptr, 16)));
            }
            i = end + 1;
        } else {
            out.push_back(uint8_t(s[i++]));
        }
    }
    return out;
}

/// Extract the quoted or bare value of `option:` from a rule body.
std::vector<std::pair<std::string, std::string>>
split_options(const std::string& body) {
    std::vector<std::pair<std::string, std::string>> opts;
    size_t i = 0;
    while (i < body.size()) {
        while (i < body.size() && (body[i] == ' ' || body[i] == ';')) ++i;
        if (i >= body.size()) break;
        size_t colon = body.find(':', i);
        size_t semi = body.find(';', i);
        if (semi == std::string::npos) semi = body.size();
        if (colon == std::string::npos || colon > semi) {
            // Flag option with no value (e.g. "nocase").
            opts.emplace_back(body.substr(i, semi - i), "");
            i = semi + 1;
            continue;
        }
        std::string key = body.substr(i, colon - i);
        // The value may contain quoted ';', so respect quotes.
        size_t v = colon + 1;
        std::string val;
        if (v < body.size() && body[v] == '"') {
            size_t endq = body.find('"', v + 1);
            if (endq == std::string::npos) sim::fatal("unterminated quote in rule: " + body);
            val = body.substr(v + 1, endq - v - 1);
            semi = body.find(';', endq);
            if (semi == std::string::npos) semi = body.size();
        } else {
            val = body.substr(v, semi - v);
        }
        opts.emplace_back(key, val);
        i = semi + 1;
    }
    return opts;
}

}  // namespace

const ContentPattern&
IdsRule::fast_pattern() const {
    if (contents.empty()) sim::fatal("rule has no content patterns");
    const ContentPattern* best = &contents[0];
    for (const auto& c : contents) {
        if (c.bytes.size() > best->bytes.size()) best = &c;
    }
    return *best;
}

IdsRuleSet
IdsRuleSet::parse(const std::string& text) {
    IdsRuleSet set;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        // Trim and skip comments/blank lines.
        size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') continue;
        line = line.substr(start);

        size_t open = line.find('(');
        size_t close = line.rfind(')');
        if (open == std::string::npos || close == std::string::npos || close < open) {
            sim::fatal("malformed rule (missing body): " + line);
        }
        std::istringstream hdr(line.substr(0, open));
        std::string action, proto, src_ip, src_port, arrow, dst_ip, dst_port;
        hdr >> action >> proto >> src_ip >> src_port >> arrow >> dst_ip >> dst_port;
        if (action != "alert" && action != "drop" && action != "block") {
            sim::fatal("unsupported rule action: " + action);
        }

        IdsRule r;
        if (proto == "tcp") {
            r.proto = RuleProto::kTcp;
        } else if (proto == "udp") {
            r.proto = RuleProto::kUdp;
        } else if (proto == "ip" || proto == "any") {
            r.proto = RuleProto::kAny;
        } else {
            sim::fatal("unsupported rule protocol: " + proto);
        }
        if (!dst_port.empty() && dst_port != "any") {
            r.dst_port = uint16_t(std::stoul(dst_port));
        }

        for (auto& [key, val] : split_options(line.substr(open + 1, close - open - 1))) {
            if (key == "content") {
                ContentPattern p;
                p.bytes = decode_content(val);
                r.contents.push_back(std::move(p));
            } else if (key == "nocase" && !r.contents.empty()) {
                r.contents.back().nocase = true;
            } else if (key == "sid") {
                r.sid = uint32_t(std::stoul(val));
            } else if (key == "msg") {
                r.msg = val;
            }
            // Other options (rev, classtype, ...) are ignored.
        }
        if (r.contents.empty()) sim::fatal("rule without content: " + line);
        if (r.sid == 0) sim::fatal("rule without sid: " + line);
        set.add(std::move(r));
    }
    return set;
}

IdsRuleSet
IdsRuleSet::synthesize(size_t count, sim::Rng& rng, size_t min_len, size_t max_len) {
    IdsRuleSet set;
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                    "0123456789_/-.";
    for (size_t i = 0; i < count; ++i) {
        IdsRule r;
        r.sid = uint32_t(1000 + i);
        double which = rng.uniform();
        r.proto = which < 0.7 ? RuleProto::kTcp : (which < 0.9 ? RuleProto::kUdp : RuleProto::kAny);
        if (rng.chance(0.5)) r.dst_port = uint16_t(rng.range(1, 65535));
        size_t n_contents = rng.chance(0.2) ? 2 : 1;
        for (size_t c = 0; c < n_contents; ++c) {
            ContentPattern p;
            size_t len = rng.range(min_len, max_len);
            for (size_t b = 0; b < len; ++b) {
                p.bytes.push_back(uint8_t(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]));
            }
            r.contents.push_back(std::move(p));
        }
        r.msg = "synthetic rule " + std::to_string(r.sid);
        set.add(std::move(r));
    }
    return set;
}

std::shared_ptr<const RuleMatcher>
IdsRuleSet::matcher() const {
    if (!compiled_) compiled_ = std::make_shared<const RuleMatcher>(rules_);
    return compiled_;
}

const IdsRule*
IdsRuleSet::find_sid(uint32_t sid) const {
    for (const auto& r : rules_) {
        if (r.sid == sid) return &r;
    }
    return nullptr;
}

Blacklist
Blacklist::parse(const std::string& text) {
    Blacklist bl;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') continue;
        std::istringstream ls(line);
        std::string tok;
        std::string addr;
        // Accept "1.2.3.4", "1.2.3.0/24", or "block drop from 1.2.3.4 to any".
        while (ls >> tok) {
            if (!tok.empty() && std::isdigit(uint8_t(tok[0]))) {
                addr = tok;
                break;
            }
        }
        if (addr.empty()) continue;
        uint8_t len = 32;
        size_t slash = addr.find('/');
        if (slash != std::string::npos) {
            len = uint8_t(std::stoul(addr.substr(slash + 1)));
            addr = addr.substr(0, slash);
        }
        bl.add(parse_ipv4_addr(addr), len);
    }
    return bl;
}

Blacklist
Blacklist::synthesize(size_t count, sim::Rng& rng) {
    Blacklist bl;
    while (bl.size() < count) {
        // Public-ish address space, avoiding 10/8 used for safe traffic.
        uint32_t ip = uint32_t(rng.range(0x0b000000, 0xdfffffff));
        if (!bl.contains(ip)) bl.add(ip, 32);
    }
    return bl;
}

void
Blacklist::add(uint32_t prefix, uint8_t length) {
    if (length > 32) sim::fatal("bad prefix length");
    uint32_t mask = length == 0 ? 0 : ~uint32_t(0) << (32 - length);
    entries_.push_back(Entry{prefix & mask, length});
}

bool
Blacklist::contains(uint32_t ip) const {
    for (const auto& e : entries_) {
        uint32_t mask = e.length == 0 ? 0 : ~uint32_t(0) << (32 - e.length);
        if ((ip & mask) == e.prefix) return true;
    }
    return false;
}

}  // namespace rosebud::net
