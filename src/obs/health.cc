#include "obs/health.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "sim/log.h"

namespace rosebud::obs {

namespace {

/// Flight-recorder ring size, in events.
constexpr size_t kRecorderCapacity = 4096;
/// Retained per-epoch verdicts (later ones are counted, not stored).
constexpr size_t kMaxVerdicts = 512;
/// Retained watchdog-trip snapshots.
constexpr size_t kMaxTrips = 16;
/// Cycles between watchdog evaluations, so the common-case on_cycle cost
/// stays one compare.
constexpr uint64_t kWatchdogCheckInterval = 1024;

std::string
trim(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(uint8_t(s[b]))) ++b;
    while (e > b && std::isspace(uint8_t(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

}  // namespace

// ---------------------------------------------------------------------------
// SLO parsing

namespace {

double
latency_unit_to_cycles(const std::string& unit, double v, const std::string& clause) {
    if (unit.empty() || unit == "c" || unit == "cycles") return v;
    if (unit == "ns") return v / sim::kNsPerCycle;
    if (unit == "us") return v * 1e3 / sim::kNsPerCycle;
    if (unit == "ms") return v * 1e6 / sim::kNsPerCycle;
    sim::fatal("parse_slo: unknown latency unit '" + unit + "' in clause '" + clause + "'");
    return 0;
}

}  // namespace

SloSpec
parse_slo(const std::string& text) {
    SloSpec spec;
    spec.text = trim(text);
    std::vector<std::string> clauses;
    std::string cur;
    for (char ch : text) {
        if (ch == ',' || ch == ';') {
            clauses.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    clauses.push_back(cur);

    for (const std::string& raw : clauses) {
        std::string clause = trim(raw);
        if (clause.empty()) continue;

        SloBound b;
        std::string body = clause;
        size_t colon = body.find(':');
        if (colon != std::string::npos) {
            std::string cls = trim(body.substr(0, colon));
            if (cls == "tcp") b.cls = net::FlowClass::kTcp;
            else if (cls == "udp") b.cls = net::FlowClass::kUdp;
            else if (cls == "other") b.cls = net::FlowClass::kOther;
            else if (cls != "all") sim::fatal("parse_slo: unknown traffic class '" + cls + "' in clause '" + clause + "'");
            body = trim(body.substr(colon + 1));
        }

        size_t le = body.find("<=");
        if (le == std::string::npos)
            sim::fatal("parse_slo: clause '" + clause + "' has no '<=' comparison");
        std::string metric = trim(body.substr(0, le));
        std::string rhs = trim(body.substr(le + 2));

        bool latency = true;
        if (metric == "latency_p50") b.kind = SloBound::Kind::kLatencyP50;
        else if (metric == "latency_p99") b.kind = SloBound::Kind::kLatencyP99;
        else if (metric == "latency_p999") b.kind = SloBound::Kind::kLatencyP999;
        else if (metric == "drop_rate") { b.kind = SloBound::Kind::kDropRate; latency = false; }
        else sim::fatal("parse_slo: unknown metric '" + metric + "' in clause '" + clause + "'");

        char* end = nullptr;
        double v = std::strtod(rhs.c_str(), &end);
        if (end == rhs.c_str())
            sim::fatal("parse_slo: clause '" + clause + "' has no numeric bound");
        std::string unit = trim(std::string(end));

        if (latency) {
            b.limit = latency_unit_to_cycles(unit, v, clause);
        } else {
            if (unit == "%") v /= 100.0;
            else if (!unit.empty())
                sim::fatal("parse_slo: unknown drop_rate unit '" + unit + "' in clause '" + clause + "'");
            b.limit = v;
        }
        spec.bounds.push_back(b);
        if (spec.bounds.size() > 32)
            sim::fatal("parse_slo: more than 32 clauses");
    }
    return spec;
}

std::string
slo_bound_text(const SloBound& b) {
    std::string out;
    if (b.cls) {
        out += net::flow_class_name(*b.cls);
        out += ": ";
    }
    char buf[64] = "";
    switch (b.kind) {
    case SloBound::Kind::kLatencyP50:
    case SloBound::Kind::kLatencyP99:
    case SloBound::Kind::kLatencyP999: {
        const char* name = b.kind == SloBound::Kind::kLatencyP50    ? "latency_p50"
                           : b.kind == SloBound::Kind::kLatencyP99 ? "latency_p99"
                                                                   : "latency_p999";
        std::snprintf(buf, sizeof(buf), "%s <= %.0fc", name, b.limit);
        break;
    }
    case SloBound::Kind::kDropRate:
        std::snprintf(buf, sizeof(buf), "drop_rate <= %g", b.limit);
        break;
    }
    out += buf;
    return out;
}

// ---------------------------------------------------------------------------
// HealthMonitor lifecycle

HealthMonitor::HealthMonitor(HealthConfig cfg)
    : cfg_(std::move(cfg)), recorder_(kRecorderCapacity) {}

HealthMonitor::~HealthMonitor() {
    if (sys_) detach();
}

void
HealthMonitor::attach(System& sys) {
    if (sys_) detach();
    sys_ = &sys;
    uint64_t now = sys.kernel().now();
    attach_cycle_ = now;

    // Fresh accounting for this attachment.
    ingress_ = egress_ = egress_bytes_ = 0;
    for (auto& d : drops_) d = 0;
    core_faults_ = watchdog_trips_ = slo_violations_ = retired_ = 0;
    lat_all_.clear();
    for (auto& h : lat_cls_) h.clear();
    epoch_all_.clear();
    for (auto& h : epoch_cls_) h.clear();
    for (auto& c : epoch_ingress_) c = 0;
    for (auto& c : epoch_drops_) c = 0;
    epoch_egress_ = 0;
    epoch_start_ = now;
    epoch_deadline_ = now + cfg_.epoch_cycles;
    verdicts_.clear();
    verdicts_.reserve(kMaxVerdicts);
    epochs_closed_ = 0;
    recorder_.clear();

    unsigned n = sys.rpu_count();
    last_activity_.assign(n, now);
    busy_since_.assign(n, now);
    comp_tripped_.assign(n, 0);
    was_faulted_.assign(n, 0);
    for (unsigned i = 0; i < n; ++i) was_faulted_[i] = sys.rpu(i).core_faulted();
    trips_.clear();
    next_check_ = now + kWatchdogCheckInterval;
    last_egress_ = now;
    sys_tripped_ = false;

    // Metrics registry: the health layer's own counters plus mirrors of
    // the stats registry and the kernel's backlog probes.
    metrics_ = MetricsRegistry();
    metrics_.add_counter("rosebud_health_ingress_packets_total",
                         "Packets accepted at MAC ingress", "",
                         [this] { return ingress_; });
    metrics_.add_counter("rosebud_health_egress_packets_total",
                         "Packets egressed (wire + host)", "",
                         [this] { return egress_; });
    metrics_.add_counter("rosebud_health_egress_bytes_total",
                         "Wire bytes egressed (incl. FCS/preamble/IFG)", "",
                         [this] { return egress_bytes_; });
    metrics_.add_counter("rosebud_health_dropped_packets_total",
                         "Packets dropped, by drop site", "site=\"mac_rx_fifo\"",
                         [this] { return dropped_at(net::Stage::kMacRxFifoDrop); });
    metrics_.add_counter("rosebud_health_dropped_packets_total",
                         "Packets dropped, by drop site", "site=\"firmware\"",
                         [this] { return dropped_at(net::Stage::kFwDrop); });
    metrics_.add_counter("rosebud_health_watchdog_trips_total",
                         "Forward-progress watchdog trips", "",
                         [this] { return watchdog_trips_; });
    metrics_.add_counter("rosebud_health_slo_violations_total",
                         "Per-epoch SLO bound violations", "",
                         [this] { return slo_violations_; });
    metrics_.add_counter("rosebud_health_core_faults_total",
                         "RPU core fault transitions observed", "",
                         [this] { return core_faults_; });
    metrics_.add_gauge("rosebud_health_inflight_packets",
                       "Packets currently between ingress and egress", "",
                       [this] { return inflight(); });
    metrics_.add_gauge("rosebud_health_epochs_closed",
                       "SLO epochs evaluated", "",
                       [this] { return epochs_closed_; });
    const double s_per_cycle = sim::kNsPerCycle * 1e-9;
    metrics_.add_histogram("rosebud_packet_latency_seconds",
                           "Ingress-to-egress packet latency", "cls=\"all\"",
                           &lat_all_, s_per_cycle);
    for (unsigned c = 0; c < net::kFlowClassCount; ++c) {
        metrics_.add_histogram("rosebud_packet_latency_seconds",
                               "Ingress-to-egress packet latency",
                               std::string("cls=\"") +
                                   net::flow_class_name(net::FlowClass(c)) + "\"",
                               &lat_cls_[c], s_per_cycle);
    }
    metrics_.set_stats(&sys.stats());
    metrics_.set_kernel(&sys.kernel());

    observer_handle_ = sys.add_packet_observer(
        [this](net::Stage stage, const net::Packet& pkt, sim::Cycle t) {
            on_stage(stage, pkt, t);
        });
    sys.kernel().set_health_probe(this);
    sys.host().set_reconfig_observer([this](const char* phase, unsigned rpu) {
        recorder_.record_note(FlightEventType::kReconfigPhase,
                              sys_->kernel().now(), phase, uint8_t(rpu));
    });
}

void
HealthMonitor::detach() {
    if (!sys_) return;
    flush_epoch();
    sys_->remove_packet_observer(observer_handle_);
    if (sys_->kernel().health_probe() == this) sys_->kernel().set_health_probe(nullptr);
    sys_->host().set_reconfig_observer({});
    metrics_.set_stats(nullptr);
    metrics_.set_kernel(nullptr);
    sys_ = nullptr;
}

// ---------------------------------------------------------------------------
// Per-packet path (hot; must not allocate)

void
HealthMonitor::on_stage(net::Stage stage, const net::Packet& pkt, sim::Cycle now) {
    using net::Stage;
    switch (stage) {
    case Stage::kMacRx: note_ingress(pkt, now); break;
    case Stage::kMacTx:
    case Stage::kHostDeliver: note_egress(stage, pkt, now); break;
    case Stage::kMacRxFifoDrop:
    case Stage::kFwDrop: note_drop(stage, pkt, now); break;
    // Descriptor-level liveness, from the events whose packet names the
    // RPU holding it. A frame at kRpuEgress carries its send's SEND_DEST
    // latch instead (the loopback target; 0 for a wire or host send).
    case Stage::kRpuRxComplete:
    case Stage::kFwSend: note_activity(pkt, now); break;
    case Stage::kRpuEgress:
    case Stage::kLbAssign:
    case Stage::kRpuLinkDispatch:
    case Stage::kLoopbackReenter: break;
    }
}

void
HealthMonitor::note_ingress(const net::Packet& pkt, uint64_t now) {
    ++ingress_;
    ++epoch_ingress_[unsigned(pkt.flow_class)];
    recorder_.record(net::Stage::kMacRx, now, pkt);
}

void
HealthMonitor::note_egress(net::Stage stage, const net::Packet& pkt, uint64_t now) {
    ++egress_;
    ++epoch_egress_;
    egress_bytes_ += pkt.wire_size();
    last_egress_ = now;
    uint32_t lat = 0;
    if (stamped_since_attach(pkt)) {
        ++retired_;
        uint64_t cycles = now - pkt.mac_rx_cycle;
        lat = uint32_t(std::min<uint64_t>(cycles, 0xFFFFFFFFu));
        unsigned cls = unsigned(pkt.flow_class);
        lat_all_.record(cycles);
        lat_cls_[cls].record(cycles);
        epoch_all_.record(cycles);
        epoch_cls_[cls].record(cycles);
    }
    recorder_.record(stage, now, pkt, lat);
}

void
HealthMonitor::note_drop(net::Stage stage, const net::Packet& pkt, uint64_t now) {
    unsigned cls = unsigned(pkt.flow_class);
    ++drops_[unsigned(stage)];
    ++epoch_drops_[cls];
    if (stage == net::Stage::kMacRxFifoDrop) {
        // Never saw "mac_rx": count it as offered so drop rates have the
        // right denominator.
        ++epoch_ingress_[cls];
    } else {
        if (stamped_since_attach(pkt)) ++retired_;
        note_activity(pkt, now);  // the firmware actively dropped it
    }
    recorder_.record(stage, now, pkt);
}

void
HealthMonitor::note_activity(const net::Packet& pkt, uint64_t now) {
    if (pkt.dest_rpu < last_activity_.size()) last_activity_[pkt.dest_rpu] = now;
}

// ---------------------------------------------------------------------------
// Per-cycle path: watchdog + epoch boundaries

void
HealthMonitor::on_cycle(uint64_t completed) {
    if (completed >= next_check_) {
        next_check_ = completed + kWatchdogCheckInterval;
        watchdog_check(completed);
    }
    if (completed >= epoch_deadline_) close_epoch(completed);
}

void
HealthMonitor::watchdog_check(uint64_t now) {
    // Core-fault transitions (rare; polled, not evented, so the health
    // layer needs no hook inside the core).
    unsigned n = unsigned(last_activity_.size());
    for (unsigned i = 0; i < n; ++i) {
        bool f = sys_->rpu(i).core_faulted();
        if (f && !was_faulted_[i]) {
            ++core_faults_;
            recorder_.record_note(FlightEventType::kFault, now,
                                  "core fault (memory protection / illegal op)",
                                  uint8_t(i));
        }
        was_faulted_[i] = f;
    }

    // System-level forward progress: packets are in flight but nothing has
    // egressed for progress_timeout cycles.
    uint64_t egress_ref = std::max(last_egress_, attach_cycle_);
    bool stalled = inflight() > 0 &&
                   now - egress_ref > cfg_.watchdog.progress_timeout;
    if (stalled && !sys_tripped_) {
        sys_tripped_ = true;
        char what[128];
        std::snprintf(what, sizeof(what),
                      "egress silent %llu cycles with %llu packets in flight",
                      (unsigned long long)(now - egress_ref),
                      (unsigned long long)inflight());
        trip(now, what, "");
    } else if (!stalled) {
        sys_tripped_ = false;
    }

    // Per-component liveness: an RPU holding packets whose firmware shows
    // no descriptor activity.
    for (unsigned i = 0; i < n; ++i) {
        uint32_t occ = sys_->rpu(i).occupancy();
        if (occ == 0) {
            busy_since_[i] = now;
            comp_tripped_[i] = 0;
            continue;
        }
        uint64_t ref = std::max(busy_since_[i], last_activity_[i]);
        if (now - ref > cfg_.watchdog.component_timeout && !comp_tripped_[i]) {
            comp_tripped_[i] = 1;
            char what[160];
            std::snprintf(what, sizeof(what),
                          "rpu%u holds %u packet(s), firmware silent %llu cycles%s",
                          i, occ, (unsigned long long)(now - ref),
                          sys_->rpu(i).core_faulted() ? " (core faulted)"
                          : sys_->rpu(i).core_halted() ? " (core halted)"
                                                       : "");
            recorder_.record_note(FlightEventType::kStallWarn, now, what, uint8_t(i));
            trip(now, what, "rpu" + std::to_string(i));
        }
    }
}

void
HealthMonitor::trip(uint64_t now, std::string what, std::string component) {
    ++watchdog_trips_;
    WatchdogTrip t;
    t.cycle = now;
    t.what = std::move(what);
    t.component = std::move(component);
    for (const auto& p : sys_->kernel().occupancy_probes()) {
        size_t occ = p.fn();
        if (occ > t.deepest_occupancy) {
            t.deepest_occupancy = occ;
            t.deepest_capacity = p.capacity;
            t.deepest_net = p.net;
        }
    }
    t.snapshot = build_snapshot(now);
    std::string note = t.what;
    if (!t.component.empty()) note += " [" + t.component + "]";
    if (!t.deepest_net.empty())
        note += " deepest=" + t.deepest_net + "(" +
                std::to_string(t.deepest_occupancy) + ")";
    recorder_.record_note(FlightEventType::kWatchdogTrip, now, note);
    if (trips_.size() < kMaxTrips) trips_.push_back(t);
}

std::string
HealthMonitor::build_snapshot(uint64_t now) const {
    std::string out;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "health snapshot @%llu: inflight=%llu ingress=%llu egress=%llu "
                  "drops=%llu awake=%zu\n",
                  (unsigned long long)now, (unsigned long long)inflight(),
                  (unsigned long long)ingress_, (unsigned long long)egress_,
                  (unsigned long long)dropped_packets(),
                  sys_->kernel().awake_count());
    out += line;
    std::snprintf(line, sizeof(line), "  last egress %llu cycles ago\n",
                  (unsigned long long)(now - std::max(last_egress_, attach_cycle_)));
    out += line;
    for (unsigned i = 0; i < sys_->rpu_count(); ++i) {
        rpu::Rpu& r = sys_->rpu(i);
        std::snprintf(line, sizeof(line),
                      "  rpu%u: occ=%u%s%s idle_for=%llu\n", i, r.occupancy(),
                      r.core_halted() ? " halted" : "",
                      r.core_faulted() ? " FAULTED" : "",
                      (unsigned long long)(now - std::max(last_activity_[i], attach_cycle_)));
        out += line;
    }

    // Deepest-backlog census over every registered FIFO/queue probe.
    std::vector<const sim::Kernel::OccupancyProbe*> ranked;
    for (const auto& p : sys_->kernel().occupancy_probes())
        if (p.fn() > 0) ranked.push_back(&p);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto* a, const auto* b) { return a->fn() > b->fn(); });
    out += "  deepest backlogs:\n";
    if (ranked.empty()) out += "    (all nets empty)\n";
    for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
        if (ranked[i]->capacity) {
            std::snprintf(line, sizeof(line), "    %-32s %zu/%zu\n",
                          ranked[i]->net.c_str(), ranked[i]->fn(),
                          ranked[i]->capacity);
        } else {
            std::snprintf(line, sizeof(line), "    %-32s %zu\n",
                          ranked[i]->net.c_str(), ranked[i]->fn());
        }
        out += line;
    }

    // Ranked stall attribution when the deep-debug telemetry is chained.
    if (deep_) {
        StallReport rep = build_stall_report(*deep_);
        out += "  stall attribution (telemetry):\n";
        for (size_t i = 0; i < rep.components.size() && i < 3; ++i) {
            const ComponentStall& c = rep.components[i];
            std::snprintf(line, sizeof(line), "    %-16s stalled=%llu starved=%llu\n",
                          c.component.c_str(), (unsigned long long)c.stalled,
                          (unsigned long long)c.starved);
            out += line;
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// SLO epochs

bool
HealthMonitor::epoch_measure(const SloBound& b, double* out) const {
    if (b.kind == SloBound::Kind::kDropRate) {
        uint64_t offered = 0, drops = 0;
        if (!b.cls) {
            for (unsigned c = 0; c < net::kFlowClassCount; ++c) {
                offered += epoch_ingress_[c];
                drops += epoch_drops_[c];
            }
        } else {
            offered = epoch_ingress_[unsigned(*b.cls)];
            drops = epoch_drops_[unsigned(*b.cls)];
        }
        if (offered == 0) return false;
        *out = double(drops) / double(offered);
        return true;
    }
    const sim::Histogram& h = b.cls ? epoch_cls_[unsigned(*b.cls)] : epoch_all_;
    if (h.count() == 0) return false;
    double p = b.kind == SloBound::Kind::kLatencyP50    ? 0.50
               : b.kind == SloBound::Kind::kLatencyP99 ? 0.99
                                                       : 0.999;
    *out = double(h.percentile(p));
    return true;
}

void
HealthMonitor::close_epoch(uint64_t now) {
    EpochVerdict v;
    v.start = epoch_start_;
    v.end = now;
    for (unsigned c = 0; c < net::kFlowClassCount; ++c) {
        v.offered += epoch_ingress_[c];
        v.drops += epoch_drops_[c];
    }
    v.egress = epoch_egress_;
    v.p50 = epoch_all_.percentile(0.50);
    v.p99 = epoch_all_.percentile(0.99);
    v.p999 = epoch_all_.percentile(0.999);
    v.drop_rate = v.offered ? double(v.drops) / double(v.offered) : 0.0;

    for (size_t i = 0; i < cfg_.slo.bounds.size(); ++i) {
        double measured = 0;
        if (!epoch_measure(cfg_.slo.bounds[i], &measured)) continue;
        if (measured > cfg_.slo.bounds[i].limit) v.violations |= 1u << i;
    }
    v.pass = v.violations == 0;

    if (!v.pass) {
        // Rare path: building the verdict note allocates, the steady-state
        // (passing) path does not.
        std::string note;
        for (size_t i = 0; i < cfg_.slo.bounds.size(); ++i) {
            if (!(v.violations & (1u << i))) continue;
            double measured = 0;
            epoch_measure(cfg_.slo.bounds[i], &measured);
            if (!note.empty()) note += "; ";
            char buf[64];
            std::snprintf(buf, sizeof(buf), " (measured %g)", measured);
            note += slo_bound_text(cfg_.slo.bounds[i]) + buf;
        }
        slo_violations_ += uint64_t(__builtin_popcount(v.violations));
        recorder_.record_note(FlightEventType::kSloViolation, now, note);
    }

    if (verdicts_.size() < kMaxVerdicts) verdicts_.push_back(v);
    ++epochs_closed_;

    for (auto& c : epoch_ingress_) c = 0;
    for (auto& c : epoch_drops_) c = 0;
    epoch_egress_ = 0;
    epoch_all_.clear();
    for (auto& h : epoch_cls_) h.clear();
    epoch_start_ = now;
    epoch_deadline_ = now + cfg_.epoch_cycles;
}

void
HealthMonitor::flush_epoch() {
    if (!sys_) return;
    uint64_t now = sys_->kernel().now();
    // Only close when the epoch holds any evidence; an empty tail epoch
    // would dilute nothing but still burn a verdict slot.
    bool any = epoch_egress_ != 0;
    for (unsigned c = 0; c < net::kFlowClassCount && !any; ++c)
        any = epoch_ingress_[c] != 0 || epoch_drops_[c] != 0;
    if (any) close_epoch(now);
}

// ---------------------------------------------------------------------------
// Dump

HealthMonitor::Dump
HealthMonitor::dump() const {
    Dump d;
    char line[192];

    std::string& t = d.text;
    t += "=== production health dump ===\n";
    std::snprintf(line, sizeof(line),
                  "ingress=%llu egress=%llu drops=%llu (rx_fifo=%llu firmware=%llu) "
                  "inflight=%llu\n",
                  (unsigned long long)ingress_, (unsigned long long)egress_,
                  (unsigned long long)dropped_packets(),
                  (unsigned long long)dropped_at(net::Stage::kMacRxFifoDrop),
                  (unsigned long long)dropped_at(net::Stage::kFwDrop),
                  (unsigned long long)inflight());
    t += line;
    if (lat_all_.count()) {
        std::snprintf(line, sizeof(line),
                      "latency (cycles): p50=%llu p99=%llu p999=%llu max=%llu over %llu samples\n",
                      (unsigned long long)lat_all_.percentile(0.50),
                      (unsigned long long)lat_all_.percentile(0.99),
                      (unsigned long long)lat_all_.percentile(0.999),
                      (unsigned long long)lat_all_.max(),
                      (unsigned long long)lat_all_.count());
        t += line;
    }
    std::snprintf(line, sizeof(line),
                  "slo: \"%s\" epochs=%llu violations=%llu trips=%llu faults=%llu\n",
                  cfg_.slo.text.c_str(), (unsigned long long)epochs_closed_,
                  (unsigned long long)slo_violations_,
                  (unsigned long long)watchdog_trips_,
                  (unsigned long long)core_faults_);
    t += line;
    for (const EpochVerdict& v : verdicts_) {
        if (v.pass) continue;
        std::snprintf(line, sizeof(line),
                      "  epoch [%llu,%llu): FAIL mask=0x%x p99=%lluc drop_rate=%.4f\n",
                      (unsigned long long)v.start, (unsigned long long)v.end,
                      v.violations, (unsigned long long)v.p99, v.drop_rate);
        t += line;
    }
    for (const WatchdogTrip& trip : trips_) {
        std::snprintf(line, sizeof(line), "--- watchdog trip @%llu: %s\n",
                      (unsigned long long)trip.cycle, trip.what.c_str());
        t += line;
        t += trip.snapshot;
    }
    t += recorder_.dump_text();

    JsonWriter w;
    w.begin_object();
    w.key("counters").begin_object();
    w.key("ingress").value(ingress_);
    w.key("egress").value(egress_);
    w.key("egress_bytes").value(egress_bytes_);
    w.key("drops_mac_rx_fifo").value(dropped_at(net::Stage::kMacRxFifoDrop));
    w.key("drops_firmware").value(dropped_at(net::Stage::kFwDrop));
    w.key("core_faults").value(core_faults_);
    w.key("watchdog_trips").value(watchdog_trips_);
    w.key("slo_violations").value(slo_violations_);
    w.key("inflight").value(inflight());
    w.end_object();
    w.key("latency_cycles").begin_object();
    w.key("count").value(lat_all_.count());
    w.key("p50").value(lat_all_.percentile(0.50));
    w.key("p99").value(lat_all_.percentile(0.99));
    w.key("p999").value(lat_all_.percentile(0.999));
    w.key("max").value(lat_all_.max());
    w.end_object();
    w.key("slo").begin_object();
    w.key("spec").value(cfg_.slo.text);
    w.key("epochs").value(epochs_closed_);
    w.key("violations").value(slo_violations_);
    w.key("verdicts").begin_array();
    for (const EpochVerdict& v : verdicts_) {
        w.begin_object();
        w.key("start").value(v.start);
        w.key("end").value(v.end);
        w.key("offered").value(v.offered);
        w.key("egress").value(v.egress);
        w.key("drops").value(v.drops);
        w.key("p50").value(v.p50);
        w.key("p99").value(v.p99);
        w.key("p999").value(v.p999);
        w.key("drop_rate").value(v.drop_rate);
        w.key("pass").value(v.pass);
        if (v.violations) w.key("violation_mask").value(uint64_t(v.violations));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("trips").begin_array();
    for (const WatchdogTrip& trip : trips_) {
        w.begin_object();
        w.key("cycle").value(trip.cycle);
        w.key("what").value(trip.what);
        w.key("component").value(trip.component);
        w.key("deepest_net").value(trip.deepest_net);
        w.key("deepest_occupancy").value(uint64_t(trip.deepest_occupancy));
        w.key("deepest_capacity").value(uint64_t(trip.deepest_capacity));
        w.key("snapshot").value(trip.snapshot);
        w.end_object();
    }
    w.end_array();
    w.key("recorder").raw(recorder_.dump_json());
    w.end_object();
    d.json = w.str();
    return d;
}

// ---------------------------------------------------------------------------
// Health sweep harness

HealthResult
run_health(const HealthSpec& spec) {
    HealthResult res;
    res.slo = parse_slo(spec.slo);
    bool captured = false;

    for (size_t si = 0; si < spec.packet_sizes.size(); ++si) {
        uint32_t size = spec.packet_sizes[si];
        PipelineFixture fx = build_pipeline(spec.build);
        System& sys = fx.system();

        HealthConfig hc = spec.health;
        hc.slo = res.slo;
        HealthMonitor mon(hc);
        std::unique_ptr<Telemetry> telem;
        if (spec.deep) {
            Telemetry::Config tc;
            tc.capture_vcd = false;
            telem = std::make_unique<Telemetry>(tc);
            telem->attach(sys);
            mon.set_stall_telemetry(telem.get());
        }
        mon.attach(sys);

        TrafficParams tp;
        tp.packet_size = size;
        tp.load = spec.load;
        tp.seed = spec.build.seed * 1000003u + size;
        add_traffic(fx, tp);

        sim::Cycle start = sys.kernel().now();
        if (spec.inject_stall && spec.stall_at < spec.run_cycles) {
            sys.run_cycles(spec.stall_at);
            // Wedge one RPU with the busy-loop image. The static verifier
            // rightly rejects it (unbounded loop), so the gate is lowered
            // for the load — the same path a hostile/buggy tenant image
            // would need an operator override for.
            unsigned r = spec.stall_rpu % sys.rpu_count();
            host::FirmwareCheck prev = sys.host().firmware_check();
            sys.host().set_firmware_check(host::FirmwareCheck::kOff);
            sys.rpu(r).halt();
            fwlib::Program wedge = fwlib::busy_loop();
            sys.host().load_firmware(r, wedge.image, wedge.entry);
            sys.host().boot(r);
            sys.host().set_firmware_check(prev);
            sys.run_cycles(spec.run_cycles - spec.stall_at);
        } else {
            sys.run_cycles(spec.run_cycles);
        }
        mon.flush_epoch();

        HealthRow row;
        row.packet_size = size;
        row.cycles = sys.kernel().now() - start;
        row.ingress = mon.ingress_packets();
        row.egress = mon.egress_packets();
        row.drops = mon.dropped_packets();
        double ns = double(row.cycles) * sim::kNsPerCycle;
        row.gbps = ns > 0 ? double(mon.egress_bytes()) * 8.0 / ns : 0.0;
        const sim::Histogram& lat = mon.latency();
        row.p50_us = double(lat.percentile(0.50)) * sim::kNsPerCycle / 1e3;
        row.p99_us = double(lat.percentile(0.99)) * sim::kNsPerCycle / 1e3;
        row.p999_us = double(lat.percentile(0.999)) * sim::kNsPerCycle / 1e3;
        uint64_t offered =
            mon.ingress_packets() + mon.dropped_at(net::Stage::kMacRxFifoDrop);
        row.drop_rate = offered ? double(row.drops) / double(offered) : 0.0;
        row.epochs = mon.epochs_closed();
        row.violations = mon.slo_violations();
        row.slo_pass = mon.slo_ok();
        row.tripped = mon.watchdog_trips() > 0;
        res.rows.push_back(row);
        res.slo_ok = res.slo_ok && row.slo_pass;
        res.watchdog_tripped = res.watchdog_tripped || row.tripped;

        bool last = si + 1 == spec.packet_sizes.size();
        if ((row.tripped || last) && !captured) {
            captured = row.tripped;  // a later trip may still take over from "last"
            HealthMonitor::Dump d = mon.dump();
            res.flight_text = d.text;
            res.flight_json = d.json;
            res.metrics_prom = mon.metrics().prometheus_text();
            if (row.tripped && !mon.trips().empty()) {
                const WatchdogTrip& trip = mon.trips().front();
                res.trip_summary = trip.what;
                if (!trip.component.empty())
                    res.trip_summary += " [" + trip.component + "]";
                if (!trip.deepest_net.empty()) {
                    res.trip_summary += " deepest=" + trip.deepest_net + "(" +
                                        std::to_string(trip.deepest_occupancy);
                    if (trip.deepest_capacity)
                        res.trip_summary +=
                            "/" + std::to_string(trip.deepest_capacity);
                    res.trip_summary += ")";
                }
            }
        }

        mon.detach();
        if (telem) telem->detach();
    }
    return res;
}

}  // namespace rosebud::obs
