#include "oracle/oracle.h"

#include <algorithm>

#include "net/headers.h"
#include "sim/log.h"

namespace rosebud::oracle {

namespace {

uint16_t
be16(const std::vector<uint8_t>& d, size_t off) {
    return uint16_t(d[off] << 8 | d[off + 1]);
}

uint32_t
be32(const std::vector<uint8_t>& d, size_t off) {
    return uint32_t(d[off]) << 24 | uint32_t(d[off + 1]) << 16 |
           uint32_t(d[off + 2]) << 8 | uint32_t(d[off + 3]);
}

uint8_t
fold_case(uint8_t b) {
    return b >= 'A' && b <= 'Z' ? uint8_t(b + 32) : b;
}

bool
payload_contains(const uint8_t* hay, size_t hay_len, const std::vector<uint8_t>& needle,
                 bool nocase) {
    if (needle.empty()) return true;
    if (needle.size() > hay_len) return false;
    for (size_t i = 0; i + needle.size() <= hay_len; ++i) {
        size_t j = 0;
        while (j < needle.size()) {
            uint8_t h = hay[i + j];
            uint8_t n = needle[j];
            if (nocase ? fold_case(h) != fold_case(n) : h != n) break;
            ++j;
        }
        if (j == needle.size()) return true;
    }
    return false;
}

}  // namespace

DataplaneOracle::DataplaneOracle(const OracleConfig& cfg) : cfg_(cfg) {
    using P = Pipeline;
    using L = lb::Policy;
    bool ok = false;
    switch (cfg_.pipeline) {
    case P::kForwarder:
        // Like NAT, the forwarder takes hash_prepended as an assembly
        // parameter, so both plain and hash layouts are supported.
        ok = cfg_.lb_policy == L::kRoundRobin || cfg_.lb_policy == L::kHash ||
             cfg_.lb_policy == L::kLeastLoaded;
        break;
    case P::kFirewall:
        // The firewall firmware parses at fixed frame offsets; the hash
        // policy's prepended word would shift every header field.
        ok = cfg_.lb_policy == L::kRoundRobin || cfg_.lb_policy == L::kLeastLoaded;
        if (!cfg_.blacklist) sim::fatal("oracle: firewall pipeline needs a blacklist");
        break;
    case P::kPigasusHwReorder:
        ok = cfg_.lb_policy == L::kRoundRobin || cfg_.lb_policy == L::kLeastLoaded;
        if (!cfg_.rules) sim::fatal("oracle: pigasus pipeline needs a ruleset");
        break;
    case P::kPigasusSwReorder:
        // Software reordering keys its flow table on the LB-prepended
        // hash; it only functions under the hash policy.
        ok = cfg_.lb_policy == L::kHash;
        if (!cfg_.rules) sim::fatal("oracle: pigasus pipeline needs a ruleset");
        break;
    case P::kNat:
        // The NAT firmware takes hash_prepended as an assembly parameter,
        // so both plain and hash layouts are supported.
        ok = cfg_.lb_policy == L::kRoundRobin || cfg_.lb_policy == L::kHash ||
             cfg_.lb_policy == L::kLeastLoaded;
        break;
    }
    if (!ok) {
        sim::fatal(std::string("oracle: unsupported pipeline/policy combination: ") +
                   pipeline_name(cfg_.pipeline));
    }
}

// --- reference stages -------------------------------------------------------

bool
DataplaneOracle::ref_prefix_match(const net::Blacklist& bl, uint32_t ip) {
    for (const auto& e : bl.entries()) {
        uint32_t mask = e.length == 0 ? 0 : ~uint32_t(0) << (32 - e.length);
        if ((ip & mask) == (e.prefix & mask)) return true;
    }
    return false;
}

std::vector<uint32_t>
DataplaneOracle::ref_rule_match(const net::IdsRuleSet& rules, const uint8_t* payload,
                                size_t len, uint16_t dst_port, bool is_tcp) {
    // Brute force, no fast-pattern pre-filter: a rule matches iff its
    // protocol and destination-port constraints hold and every content is
    // present. Equivalent to the device because the fast pattern is
    // itself one of the contents the device re-verifies.
    std::vector<uint32_t> sids;
    for (const auto& r : rules.rules()) {
        if (r.proto == net::RuleProto::kTcp && !is_tcp) continue;
        if (r.proto == net::RuleProto::kUdp && is_tcp) continue;
        if (r.dst_port && *r.dst_port != dst_port) continue;
        bool all = true;
        for (const auto& c : r.contents) {
            if (!payload_contains(payload, len, c.bytes, c.nocase)) {
                all = false;
                break;
            }
        }
        if (all) sids.push_back(r.sid);
    }
    std::sort(sids.begin(), sids.end());
    return sids;
}

uint32_t
DataplaneOracle::ref_crc32c(const uint8_t* data, size_t len) {
    // Bit-serial, no lookup table (the device model is table-driven).
    uint32_t crc = ~uint32_t(0);
    for (size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b) {
            crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1)));
        }
    }
    return ~crc;
}

uint32_t
DataplaneOracle::ref_flow_hash(const std::vector<uint8_t>& frame) {
    // Mirrors net::packet_flow_hash's reject conditions bit for bit, but
    // extracts fields and hashes with independent code.
    if (frame.size() < 14) return 0;
    if (be16(frame, 12) != 0x0800) return 0;
    if (frame.size() < 34) return 0;
    uint32_t ihl = (frame[14] & 0x0f) * 4u;
    if (ihl < 20) return 0;
    size_t l4 = 14 + ihl;
    uint8_t proto = frame[23];
    uint32_t src_ip = be32(frame, 26);
    uint32_t dst_ip = be32(frame, 30);
    uint16_t src_port = 0;
    uint16_t dst_port = 0;
    if (proto == 6) {  // TCP
        if (frame.size() < l4 + 20) return 0;
        src_port = be16(frame, l4);
        dst_port = be16(frame, l4 + 2);
    } else if (proto == 17) {  // UDP
        if (frame.size() < l4 + 8) return 0;
        src_port = be16(frame, l4);
        dst_port = be16(frame, l4 + 2);
    }

    // Canonicalize direction: (a->b) and (b->a) must hash identically.
    uint32_t ip_lo = std::min(src_ip, dst_ip);
    uint32_t ip_hi = std::max(src_ip, dst_ip);
    bool fwd = src_ip < dst_ip || (src_ip == dst_ip && src_port <= dst_port);
    uint16_t port_lo = fwd ? src_port : dst_port;
    uint16_t port_hi = fwd ? dst_port : src_port;

    uint8_t buf[13] = {
        uint8_t(ip_lo >> 24), uint8_t(ip_lo >> 16), uint8_t(ip_lo >> 8), uint8_t(ip_lo),
        uint8_t(ip_hi >> 24), uint8_t(ip_hi >> 16), uint8_t(ip_hi >> 8), uint8_t(ip_hi),
        uint8_t(port_lo >> 8), uint8_t(port_lo),
        uint8_t(port_hi >> 8), uint8_t(port_hi),
        proto,
    };
    return ref_crc32c(buf, sizeof(buf));
}

unsigned
DataplaneOracle::ref_hash_steer(uint32_t hash, uint32_t eligible_mask,
                                unsigned rpu_count) {
    std::vector<unsigned> eligible;
    for (unsigned i = 0; i < rpu_count && i < 32; ++i) {
        if (eligible_mask & (1u << i)) eligible.push_back(i);
    }
    if (eligible.empty()) return 0xff;
    return eligible[hash % eligible.size()];
}

// --- prediction -------------------------------------------------------------

Prediction
DataplaneOracle::predict(const std::vector<uint8_t>& frame, net::Iface in_iface) const {
    net::Iface other =
        in_iface == net::Iface::kPort0 ? net::Iface::kPort1 : net::Iface::kPort0;
    bool hashed = cfg_.lb_policy == lb::Policy::kHash;

    Prediction p;
    if (hashed) {
        p.lb_hash = ref_flow_hash(frame);
        p.hash_prepended = true;
    }

    switch (cfg_.pipeline) {
    case Pipeline::kForwarder:
        p.outcome = Prediction::Outcome::kForwardWire;
        p.out_iface = other;
        // The forwarder echoes the frame verbatim, without the hash word
        // the hash policy prepends to it in the slot.
        p.out_bytes = frame;
        break;

    case Pipeline::kFirewall:
        if (frame.size() < 34 || be16(frame, 12) != 0x0800) {
            p.outcome = Prediction::Outcome::kDrop;
            p.drop_reason = Prediction::DropReason::kNonIp;
        } else if (ref_prefix_match(*cfg_.blacklist, be32(frame, 26))) {
            p.outcome = Prediction::Outcome::kDrop;
            p.drop_reason = Prediction::DropReason::kBlacklistedSrc;
        } else {
            p.outcome = Prediction::Outcome::kForwardWire;
            p.out_iface = other;
            p.out_bytes = frame;
        }
        break;

    case Pipeline::kPigasusHwReorder:
    case Pipeline::kPigasusSwReorder: {
        Prediction q = predict_pigasus(frame, other);
        q.lb_hash = p.lb_hash;
        q.hash_prepended = p.hash_prepended;
        p = q;
        break;
    }

    case Pipeline::kNat: {
        Prediction q = predict_nat(frame, other);
        q.lb_hash = p.lb_hash;
        q.hash_prepended = p.hash_prepended;
        p = q;
        break;
    }
    }
    return p;
}

Prediction
DataplaneOracle::predict_pigasus(const std::vector<uint8_t>& frame,
                                 net::Iface other) const {
    Prediction p;
    bool sw = cfg_.pipeline == Pipeline::kPigasusSwReorder;

    // Both firmwares drop anything that is not IPv4 TCP/UDP.
    if (frame.size() < 38 || be16(frame, 12) != 0x0800 ||
        (frame[23] != 6 && frame[23] != 17)) {
        p.outcome = Prediction::Outcome::kDrop;
        p.drop_reason = Prediction::DropReason::kNonIp;
        return p;
    }
    bool tcp = frame[23] == 6;
    // Fixed firmware offsets (IHL is assumed 5, as the generator emits):
    // TCP payload at 54, UDP payload at 42, in raw-frame terms.
    size_t payload_off = tcp ? 54 : 42;
    size_t payload_len = frame.size() > payload_off ? frame.size() - payload_off : 0;
    uint16_t dst_port = be16(frame, 36);

    std::vector<uint32_t> sids = ref_rule_match(
        *cfg_.rules, frame.data() + payload_off, payload_len, dst_port, tcp);

    if (sw && tcp) {
        // Flow-table collisions, resyncs, and reorder-buffer overflow all
        // legally punt the packet to the host unscanned.
        p.may_punt_to_host = true;
    }
    if (!sids.empty()) {
        p.outcome = Prediction::Outcome::kDeliverHost;
        p.matched_sids = std::move(sids);
        p.exact_bytes = false;  // host record carries alignment padding
    } else {
        p.outcome = Prediction::Outcome::kForwardWire;
        p.out_iface = other;
        p.out_bytes = frame;  // both firmwares strip the hash before forwarding
    }
    return p;
}

Prediction
DataplaneOracle::predict_nat(const std::vector<uint8_t>& frame, net::Iface other) const {
    Prediction p;
    p.outcome = Prediction::Outcome::kForwardWire;
    p.out_iface = other;

    // Engine pass-through conditions (nat.cc translate()).
    if (frame.size() < 34 || be16(frame, 12) != 0x0800 ||
        (frame[23] != 6 && frame[23] != 17)) {
        p.out_bytes = frame;
        return p;
    }

    uint32_t src_ip = be32(frame, 26);
    uint32_t dst_ip = be32(frame, 30);
    const auto& nat = cfg_.nat;
    uint32_t mask = nat.internal_prefix_len == 0
                        ? 0
                        : ~uint32_t(0) << (32 - nat.internal_prefix_len);
    bool internal_src = (src_ip & mask) == (nat.internal_prefix & mask);

    if (internal_src) {
        // Outbound: src ip -> external_ip, checksum fixed incrementally,
        // src port -> an allocated port (dynamic; checked structurally).
        p.nat_outbound = true;
        p.out_bytes = frame;
        uint16_t old_check = be16(frame, 24);
        uint16_t new_check = net::checksum_fixup32(old_check, src_ip, nat.external_ip);
        p.out_bytes[24] = uint8_t(new_check >> 8);
        p.out_bytes[25] = uint8_t(new_check);
        p.out_bytes[26] = uint8_t(nat.external_ip >> 24);
        p.out_bytes[27] = uint8_t(nat.external_ip >> 16);
        p.out_bytes[28] = uint8_t(nat.external_ip >> 8);
        p.out_bytes[29] = uint8_t(nat.external_ip);
        p.wildcards.push_back({34, 2});
        return p;
    }

    if (dst_ip == nat.external_ip) {
        // Inbound: either a reverse mapping exists (rewrite) or it does
        // not (drop) — mapping state is dynamic, so both are acceptable
        // and validated structurally.
        p.nat_inbound = true;
        p.exact_bytes = false;
        return p;
    }

    p.out_bytes = frame;  // external-to-external pass-through
    return p;
}

// --- output validation ------------------------------------------------------

namespace {

std::string
size_err(const char* what, size_t want, size_t got) {
    return std::string(what) + ": expected " + std::to_string(want) + " bytes, got " +
           std::to_string(got);
}

bool
in_wildcard(const std::vector<Prediction::Wildcard>& ws, size_t off) {
    for (const auto& w : ws) {
        if (off >= w.offset && off < size_t(w.offset) + w.len) return true;
    }
    return false;
}

}  // namespace

bool
DataplaneOracle::check_output(const Prediction& pred,
                              const std::vector<uint8_t>& in_frame,
                              const std::vector<uint8_t>& out, bool to_host,
                              std::string* why) const {
    auto fail = [&](std::string msg) {
        if (why) *why = std::move(msg);
        return false;
    };
    size_t f = in_frame.size();

    if (to_host) {
        bool sw = cfg_.pipeline == Pipeline::kPigasusSwReorder;

        // Punt framing: the LB hash word followed by the untouched frame.
        auto check_punt = [&](std::string* err) {
            if (out.size() != f + 4) {
                *err = size_err("punt record", f + 4, out.size());
                return false;
            }
            uint32_t hash_word = uint32_t(out[0]) | uint32_t(out[1]) << 8 |
                                 uint32_t(out[2]) << 16 | uint32_t(out[3]) << 24;
            if (hash_word != pred.lb_hash) {
                *err = "punt record hash word mismatch";
                return false;
            }
            if (!std::equal(in_frame.begin(), in_frame.end(), out.begin() + 4)) {
                *err = "punt record frame bytes differ from input";
                return false;
            }
            return true;
        };

        // Match framing: frame ++ pad-to-4 ++ ascending little-endian sids.
        // The hardware path pads the frame length F; the software path
        // pads the hashed length F+4 and then strips the hash word.
        auto check_match = [&](std::string* err) {
            size_t padded = sw ? ((f + 4 + 3) & ~size_t(3)) - 4 : (f + 3) & ~size_t(3);
            size_t want = padded + 4 * pred.matched_sids.size();
            if (out.size() != want) {
                *err = size_err("match record", want, out.size());
                return false;
            }
            if (!std::equal(in_frame.begin(), in_frame.end(), out.begin())) {
                *err = "match record frame bytes differ from input";
                return false;
            }
            // Padding bytes between f and padded are unspecified (stale
            // packet memory); only the sid words are checked.
            for (size_t i = 0; i < pred.matched_sids.size(); ++i) {
                size_t off = padded + 4 * i;
                uint32_t sid = uint32_t(out[off]) | uint32_t(out[off + 1]) << 8 |
                               uint32_t(out[off + 2]) << 16 | uint32_t(out[off + 3]) << 24;
                if (sid != pred.matched_sids[i]) {
                    *err = "match record sid[" + std::to_string(i) + "] = " +
                           std::to_string(sid) + ", expected " +
                           std::to_string(pred.matched_sids[i]);
                    return false;
                }
            }
            return true;
        };

        if (pred.outcome == Prediction::Outcome::kDeliverHost) {
            std::string match_err;
            if (check_match(&match_err)) return true;
            // A matched TCP packet can still have been punted unscanned.
            if (pred.may_punt_to_host) {
                std::string punt_err;
                if (check_punt(&punt_err)) return true;
                return fail("host record is neither a match record (" + match_err +
                            ") nor a punt record (" + punt_err + ")");
            }
            return fail(match_err);
        }
        if (pred.may_punt_to_host) {
            std::string punt_err;
            if (check_punt(&punt_err)) return true;
            return fail("bad punt record: " + punt_err);
        }
        return fail("unexpected host delivery");
    }

    // --- wire output --------------------------------------------------------

    if (pred.nat_inbound) {
        // Reverse translation: [30..33] dst ip, [36..37] dst port, and
        // [24..25] checksum rewritten; everything else byte-identical.
        if (out.size() != f) return fail(size_err("NAT inbound frame", f, out.size()));
        for (size_t i = 0; i < f; ++i) {
            bool rewritable = (i >= 30 && i <= 33) || i == 36 || i == 37 ||
                              i == 24 || i == 25;
            if (!rewritable && out[i] != in_frame[i]) {
                return fail("NAT inbound rewrote unexpected byte " + std::to_string(i));
            }
        }
        uint32_t old_dst = be32(in_frame, 30);
        uint32_t new_dst = be32(out, 30);
        uint32_t pmask = cfg_.nat.internal_prefix_len == 0
                             ? 0
                             : ~uint32_t(0) << (32 - cfg_.nat.internal_prefix_len);
        if ((new_dst & pmask) != (cfg_.nat.internal_prefix & pmask)) {
            return fail("NAT inbound rewrote dst to a non-internal address");
        }
        uint16_t want_check = net::checksum_fixup32(be16(in_frame, 24), old_dst, new_dst);
        if (be16(out, 24) != want_check) {
            return fail("NAT inbound checksum not the RFC 1624 incremental update");
        }
        return true;
    }

    if (!pred.exact_bytes) return fail("no byte-level prediction for wire output");
    if (out.size() != pred.out_bytes.size()) {
        return fail(size_err("wire frame", pred.out_bytes.size(), out.size()));
    }
    for (size_t i = 0; i < out.size(); ++i) {
        if (in_wildcard(pred.wildcards, i)) continue;
        if (out[i] != pred.out_bytes[i]) {
            return fail("wire frame byte " + std::to_string(i) + " = " +
                        std::to_string(out[i]) + ", expected " +
                        std::to_string(pred.out_bytes[i]));
        }
    }
    if (pred.nat_outbound) {
        // The allocated source port must come from this engine's slice of
        // the port space: base + offset + k*stride, k in [0, count).
        const auto& nat = cfg_.nat;
        uint16_t port = uint16_t(out[34] << 8 | out[35]);
        uint32_t lo = uint32_t(nat.port_base) + nat.port_offset;
        uint32_t stride = nat.port_stride == 0 ? 1 : nat.port_stride;
        if (port < lo || (port - lo) % stride != 0 ||
            (port - lo) / stride >= nat.port_count) {
            return fail("NAT allocated port " + std::to_string(port) +
                        " outside this engine's slice");
        }
    }
    return true;
}

}  // namespace rosebud::oracle
