#include "oracle/scoreboard.h"

#include <cstdio>

namespace rosebud::oracle {

namespace {

/// Detailed divergence dumps kept for report().
constexpr size_t kMaxReports = 4;

std::string
hex_dump(const std::vector<uint8_t>& d, size_t limit = 96) {
    std::string out;
    char buf[16];
    size_t n = std::min(d.size(), limit);
    for (size_t i = 0; i < n; ++i) {
        if (i % 32 == 0) {
            std::snprintf(buf, sizeof(buf), "\n  %04zx ", i);
            out += buf;
        }
        std::snprintf(buf, sizeof(buf), "%02x", d[i]);
        out += buf;
    }
    if (d.size() > limit) out += " ...(" + std::to_string(d.size()) + " bytes)";
    out += "\n";
    return out;
}

const char*
outcome_name(Prediction::Outcome o) {
    switch (o) {
    case Prediction::Outcome::kForwardWire: return "forward-wire";
    case Prediction::Outcome::kDeliverHost: return "deliver-host";
    case Prediction::Outcome::kDrop: return "drop";
    }
    return "?";
}

const char*
drop_reason_name(Prediction::DropReason r) {
    switch (r) {
    case Prediction::DropReason::kNone: return "none";
    case Prediction::DropReason::kNonIp: return "non-ip";
    case Prediction::DropReason::kBlacklistedSrc: return "blacklisted-src";
    case Prediction::DropReason::kNatUnmappable: return "nat-unmappable";
    }
    return "?";
}

}  // namespace

Scoreboard::Scoreboard(System& sys, const DataplaneOracle& oracle)
    : sys_(sys), oracle_(oracle) {
    observer_handle_ = sys_.add_packet_observer(
        [this](net::Stage stage, const net::Packet& pkt, sim::Cycle now) {
            on_event(stage, pkt, now);
        });
}

Scoreboard::~Scoreboard() {
    sys_.remove_packet_observer(observer_handle_);
}

void
Scoreboard::fold_output(char kind, uint64_t id, const std::vector<uint8_t>& bytes) {
    // Per-packet FNV-1a digest, XOR-combined so the aggregate is
    // independent of completion order (which varies with drain timing
    // but not with packet content).
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint8_t b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    mix(uint8_t(kind));
    for (int i = 0; i < 8; ++i) mix(uint8_t(id >> (8 * i)));
    for (uint8_t b : bytes) mix(b);
    counts_.output_byte_hash ^= h;
}

void
Scoreboard::diverge(const char* kind, uint64_t id, const Entry* e, const char* where,
                    const net::Packet* actual, sim::Cycle now,
                    const std::string& detail) {
    ++counts_.divergences;
    if (reports_.size() >= kMaxReports) return;

    std::string r = "divergence #" + std::to_string(counts_.divergences) + " [" + kind +
                    "] packet " + std::to_string(id) + " at stage " + where + ", cycle " +
                    std::to_string(now) + "\n";
    if (!detail.empty()) r += "  " + detail + "\n";
    if (e) {
        r += "  predicted: " + std::string(outcome_name(e->pred.outcome));
        if (e->pred.outcome == Prediction::Outcome::kDrop) {
            r += " (" + std::string(drop_reason_name(e->pred.drop_reason)) + ")";
        }
        if (e->pred.outcome == Prediction::Outcome::kForwardWire) {
            r += " via port " + std::to_string(unsigned(e->pred.out_iface));
        }
        if (!e->pred.matched_sids.empty()) {
            r += ", sids {";
            for (size_t i = 0; i < e->pred.matched_sids.size(); ++i) {
                if (i) r += ",";
                r += std::to_string(e->pred.matched_sids[i]);
            }
            r += "}";
        }
        if (e->pred.hash_prepended) {
            r += ", lb_hash 0x";
            char b[16];
            std::snprintf(b, sizeof(b), "%08x", e->pred.lb_hash);
            r += b;
        }
        if (e->pred.may_punt_to_host) r += ", punt-ok";
        r += "\n  input frame (" + std::to_string(e->input.size()) + " B, in port " +
             std::to_string(unsigned(e->in_iface)) + "):" + hex_dump(e->input);
        if (e->pred.exact_bytes) {
            r += "  expected output (" + std::to_string(e->pred.out_bytes.size()) +
                 " B):" + hex_dump(e->pred.out_bytes);
        }
        if (e->assigned_rpu != 0xff && e->assigned_rpu < sys_.rpu_count()) {
            unsigned rpu = e->assigned_rpu;
            r += "  rpu " + std::to_string(rpu) +
                 ": debug=" + std::to_string(sys_.host().debug_low(rpu)) + "/" +
                 std::to_string(sys_.host().debug_high(rpu)) + ", free slots " +
                 std::to_string(sys_.lb().host_read(lb::kLbRegFreeSlotsBase + 4 * rpu)) +
                 ", fw drops " +
                 std::to_string(
                     sys_.stats().get("rpu" + std::to_string(rpu) + ".dropped_packets")) +
                 "\n";
        }
    }
    if (actual) {
        r += "  actual packet (" + std::to_string(actual->data.size()) + " B, out " +
             std::to_string(unsigned(actual->out_iface)) +
             "):" + hex_dump(actual->data);
    }
    reports_.push_back(std::move(r));
}

void
Scoreboard::on_event(net::Stage stage, const net::Packet& pkt, sim::Cycle now) {
    using net::Stage;
    const char* where = net::stage_name(stage);
    switch (stage) {
    case Stage::kMacRx:
    case Stage::kMacRxFifoDrop: {
        bool dropped = stage == Stage::kMacRxFifoDrop;
        auto [it, fresh] = entries_.try_emplace(pkt.id);
        if (!fresh) {
            diverge("duplicate-ingress", pkt.id, &it->second, where, &pkt, now,
                    "packet id registered at ingress twice");
            return;
        }
        Entry& e = it->second;
        e.input = pkt.data;
        e.in_iface = pkt.in_iface;
        e.pred = oracle_.predict(e.input, e.in_iface);
        ++counts_.offered;
        if (dropped) {
            // Architectural loss at the MAC FIFO: resolved, not a bug.
            e.congestion = true;
            e.terminals = 1;
            ++counts_.congestion_dropped;
        } else {
            ++outstanding_;
        }
        return;
    }

    case Stage::kLbAssign: {
        auto it = entries_.find(pkt.id);
        if (it == entries_.end()) return;  // host-injected / loopback traffic
        Entry& e = it->second;
        e.assigned_rpu = pkt.dest_rpu;
        if (pkt.hash_prepended != e.pred.hash_prepended) {
            diverge("hash-prepend-mismatch", pkt.id, &e, where, &pkt, now,
                    std::string("hash_prepended = ") +
                        (pkt.hash_prepended ? "true" : "false") + ", predicted " +
                        (e.pred.hash_prepended ? "true" : "false"));
        } else if (e.pred.hash_prepended) {
            if (pkt.lb_hash != e.pred.lb_hash) {
                char b[64];
                std::snprintf(b, sizeof(b), "lb_hash 0x%08x, predicted 0x%08x",
                              pkt.lb_hash, e.pred.lb_hash);
                diverge("lb-hash-mismatch", pkt.id, &e, where, &pkt, now, b);
            } else {
                uint32_t eligible = sys_.lb().recv_mask() &
                                    sys_.lb().host_read(lb::kLbRegEnableMask);
                unsigned want = DataplaneOracle::ref_hash_steer(e.pred.lb_hash, eligible,
                                                                sys_.rpu_count());
                if (want != 0xff && pkt.dest_rpu != want) {
                    diverge("steering-mismatch", pkt.id, &e, where, &pkt, now,
                            "assigned rpu " + std::to_string(pkt.dest_rpu) +
                                ", hash steering predicts rpu " + std::to_string(want));
                }
            }
        }
        return;
    }

    case Stage::kFwDrop:
    case Stage::kMacTx:
    case Stage::kHostDeliver: {
        auto it = entries_.find(pkt.id);
        if (it == entries_.end()) {
            diverge("unknown-packet", pkt.id, nullptr, where, &pkt, now,
                    "terminal event for a packet never seen at ingress");
            return;
        }
        terminal(pkt.id, it->second, stage, pkt, now);
        return;
    }

    // Intermediate stages: nothing to check yet.
    case Stage::kRpuLinkDispatch:
    case Stage::kRpuRxComplete:
    case Stage::kFwSend:
    case Stage::kRpuEgress:
    case Stage::kLoopbackReenter: return;
    }
}

void
Scoreboard::terminal(uint64_t id, Entry& e, net::Stage stage, const net::Packet& pkt,
                     sim::Cycle now) {
    const char* where = net::stage_name(stage);
    ++e.terminals;
    if (e.terminals > 1) {
        diverge(e.congestion ? "output-after-congestion-drop" : "duplicate-terminal", id,
                &e, where, &pkt, now,
                "packet already reached a terminal state " +
                    std::to_string(e.terminals - 1) + " time(s)");
        return;
    }
    if (outstanding_ > 0) --outstanding_;

    using O = Prediction::Outcome;
    if (stage == net::Stage::kFwDrop) {
        ++counts_.fw_dropped;
        // NAT inbound legitimately drops when no mapping exists.
        if (e.pred.outcome != O::kDrop && !e.pred.nat_inbound) {
            diverge("unexpected-drop", id, &e, where, &pkt, now,
                    "firmware dropped a packet the oracle expects to survive");
        }
        return;
    }

    if (stage == net::Stage::kMacTx) {
        ++counts_.forwarded_wire;
        fold_output('t', id, pkt.data);
        if (e.pred.outcome != O::kForwardWire) {
            diverge("unexpected-wire-forward", id, &e, where, &pkt, now,
                    std::string("oracle predicts ") + outcome_name(e.pred.outcome));
            return;
        }
        if (pkt.out_iface != e.pred.out_iface) {
            diverge("egress-port-mismatch", id, &e, where, &pkt, now,
                    "egress port " + std::to_string(unsigned(pkt.out_iface)) +
                        ", predicted " + std::to_string(unsigned(e.pred.out_iface)));
            return;
        }
        std::string why;
        if (!oracle_.check_output(e.pred, e.input, pkt.data, false, &why)) {
            diverge("wire-byte-mismatch", id, &e, where, &pkt, now, why);
            return;
        }
        if (e.pred.nat_outbound && e.input.size() >= 36 && pkt.data.size() >= 36) {
            uint32_t int_ip = uint32_t(e.input[26]) << 24 | uint32_t(e.input[27]) << 16 |
                              uint32_t(e.input[28]) << 8 | e.input[29];
            uint16_t int_port = uint16_t(e.input[34] << 8 | e.input[35]);
            uint16_t ext_port = uint16_t(pkt.data[34] << 8 | pkt.data[35]);
            auto fwd_key = std::make_tuple(e.assigned_rpu, int_ip, int_port);
            auto [fit, ffresh] = nat_forward_.try_emplace(fwd_key, ext_port);
            if (!ffresh && fit->second != ext_port) {
                diverge("nat-mapping-instability", id, &e, where, &pkt, now,
                        "flow previously mapped to external port " +
                            std::to_string(fit->second) + ", now " +
                            std::to_string(ext_port));
                return;
            }
            auto rev_key = std::make_pair(e.assigned_rpu, ext_port);
            auto want = std::make_tuple(int_ip, int_port);
            auto [rit, rfresh] = nat_reverse_.try_emplace(rev_key, want);
            if (!rfresh && rit->second != want) {
                diverge("nat-port-collision", id, &e, where, &pkt, now,
                        "external port " + std::to_string(ext_port) +
                            " already maps to a different internal flow on rpu " +
                            std::to_string(e.assigned_rpu));
            }
        }
        return;
    }

    // host_deliver
    ++counts_.host_delivered;
    fold_output('h', id, pkt.data);
    if (e.pred.outcome != O::kDeliverHost && !e.pred.may_punt_to_host) {
        diverge("unexpected-host-delivery", id, &e, where, &pkt, now,
                std::string("oracle predicts ") + outcome_name(e.pred.outcome));
        return;
    }
    if (e.pred.outcome != O::kDeliverHost) ++counts_.punted;
    std::string why;
    if (!oracle_.check_output(e.pred, e.input, pkt.data, true, &why)) {
        diverge("host-byte-mismatch", id, &e, where, &pkt, now, why);
    }
}

Scoreboard::Counts
Scoreboard::finish() {
    if (!finished_) {
        finished_ = true;
        for (auto& [id, e] : entries_) {
            if (e.terminals == 0) {
                diverge("stuck-packet", id, &e, "finish", nullptr,
                        sys_.kernel().now(),
                        "packet never reached a terminal state (assigned rpu " +
                            (e.assigned_rpu == 0xff ? std::string("none")
                                                    : std::to_string(e.assigned_rpu)) +
                            ")");
            }
        }
    }
    return counts_;
}

std::string
Scoreboard::report() const {
    if (counts_.divergences == 0) return "";
    std::string out;
    for (const auto& r : reports_) out += r;
    if (counts_.divergences > reports_.size()) {
        out += "... and " + std::to_string(counts_.divergences - reports_.size()) +
               " more divergence(s)\n";
    }
    return out;
}

}  // namespace rosebud::oracle
