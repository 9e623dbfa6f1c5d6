#include "workload.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "accel/pigasus.h"
#include "core/experiments.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "net/tracegen.h"
#include "oracle/harness.h"
#include "sim/random.h"

namespace simbench {

using namespace rosebud;

namespace {

constexpr unsigned kPorts = 2;

/// Seed-0 values equal the exp harness defaults.
uint64_t
fwd_flow_seed(uint64_t seed, unsigned port) { return port + 1 + kPorts * seed; }
uint64_t
ips_seed(uint64_t seed) { return 42 + seed; }

/// The generator exp::run_forwarding uses: clones a prototype frame.
dist::TrafficSource::GenFn
fixed_size_gen(uint32_t size, uint64_t seed) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001 + uint32_t(seed), 0x0a000002)
        .udp(uint16_t(1024 + seed), 2000)
        .frame_size(size);
    net::PacketPtr proto = b.build();
    auto next_id = std::make_shared<uint64_t>(seed << 32);
    return [proto, next_id]() {
        auto p = std::make_shared<net::Packet>(*proto);
        p->id = (*next_id)++;
        return p;
    };
}

/// Attack keys must be unique across the two ports' generators, whose
/// packet ids both count from 0.
uint64_t
attack_key(uint64_t id, unsigned port) { return id * kPorts + port; }

/// Forwards every call to the real matcher, timing tick and MMIO.
class TimedAccelerator : public rpu::Accelerator {
 public:
    TimedAccelerator(std::unique_ptr<rpu::Accelerator> inner, Tally* tally)
        : inner_(std::move(inner)), tally_(tally) {}

    void reset() override { inner_->reset(); }
    void tick(rpu::AccelContext& ctx) override {
        TallyScope t(tally_);
        inner_->tick(ctx);
    }
    bool mmio_read(uint32_t offset, uint32_t& value, rpu::AccelContext& ctx) override {
        TallyScope t(tally_);
        return inner_->mmio_read(offset, value, ctx);
    }
    bool mmio_write(uint32_t offset, uint32_t value, rpu::AccelContext& ctx) override {
        TallyScope t(tally_);
        return inner_->mmio_write(offset, value, ctx);
    }
    sim::ResourceFootprint resources() const override { return inner_->resources(); }
    std::string name() const override { return inner_->name(); }
    unsigned stream_ports() const override { return inner_->stream_ports(); }
    unsigned queue_count() const override { return inner_->queue_count(); }

 private:
    std::unique_ptr<rpu::Accelerator> inner_;
    Tally* tally_;
};

}  // namespace

std::optional<Workload>
parse_workload(const std::string& name) {
    for (Workload w : {Workload::kFwd64, Workload::kFwd1500, Workload::kIps1k})
        if (name == workload_name(w)) return w;
    return std::nullopt;
}

const char*
workload_name(Workload w) {
    switch (w) {
    case Workload::kFwd64: return "fwd64";
    case Workload::kFwd1500: return "fwd1500";
    case Workload::kIps1k: return "ips1k";
    }
    return "?";
}

Spec
spec_of(Workload w) {
    exp::ForwardingParams fp;
    exp::IpsParams ip;
    switch (w) {
    case Workload::kFwd64: return {false, 64, fp.rpu_count, fp.warmup, fp.window};
    case Workload::kFwd1500: return {false, 1500, fp.rpu_count, fp.warmup, fp.window};
    case Workload::kIps1k: return {true, ip.size, ip.rpu_count, ip.warmup, ip.window};
    }
    return {};
}

Instance
build(Workload w, uint64_t seed, Trace* trace) {
    Instance inst;
    inst.workload = w;
    inst.spec = spec_of(w);
    inst.probes = std::make_unique<Probes>();
    const Spec& spec = inst.spec;
    Tally* t_traffic = trace ? trace->boundary("traffic") : nullptr;
    Tally* t_accel = trace ? trace->boundary("accel") : nullptr;
    Tally* t_host = trace ? trace->boundary("host.rx") : nullptr;
    exp::IpsParams ip;
    ip.seed = ips_seed(seed);

    int64_t t0 = now_ns();
    SpanScope setup(trace, "setup");

    // Rules and generators depend on nothing in the System, so building
    // them first leaves every bit of its state as the exp harness has it.
    std::vector<dist::TrafficSource::GenFn> gens;
    {
        SpanScope s(trace, "setup.tables");
        if (spec.ips) {
            sim::Rng rng(ip.seed);
            inst.rules = std::make_unique<net::IdsRuleSet>(
                net::IdsRuleSet::synthesize(ip.rule_count, rng));
        }
        for (unsigned port = 0; port < kPorts; ++port) {
            dist::TrafficSource::GenFn gen;
            if (spec.ips) {
                net::TrafficSpec ts;
                ts.packet_size = ip.size;
                ts.attack_fraction = ip.attack_fraction;
                ts.reorder_fraction = ip.reorder_fraction;
                ts.udp_fraction = 0.05;
                ts.seed = ip.seed + port + 1;
                auto tg = std::make_shared<net::TraceGenerator>(ts, inst.rules.get());
                gen = [tg, probes = inst.probes.get(), port] {
                    auto pkt = tg->next();
                    if (pkt->is_attack && probes->track_attacks)
                        probes->attacks_offered.push_back(attack_key(pkt->id, port));
                    return pkt;
                };
            } else {
                gen = fixed_size_gen(spec.size, fwd_flow_seed(seed, port));
            }
            gens.push_back([gen = std::move(gen), probes = inst.probes.get(), t_traffic] {
                TallyScope t(t_traffic);
                ++probes->offered;
                if (probes->gen_delay_ns) {
                    int64_t until = now_ns() + probes->gen_delay_ns;
                    while (now_ns() < until) {
                    }
                }
                return gen();
            });
        }
    }
    {
        SpanScope s(trace, "setup.system");
        SystemConfig cfg;
        cfg.rpu_count = spec.rpu_count;
        if (spec.ips) {
            cfg.lb_policy = lb::Policy::kRoundRobin;
            cfg.hw_reassembler = true;
        }
        inst.sys = std::make_unique<System>(cfg);
    }
    System& sys = *inst.sys;
    if (spec.ips) {
        SpanScope s(trace, "setup.accel");
        const net::IdsRuleSet& rules = *inst.rules;
        sys.attach_accelerators([&]() -> std::unique_ptr<rpu::Accelerator> {
            auto m = std::make_unique<accel::PigasusMatcher>(rules);
            if (!t_accel) return m;
            return std::make_unique<TimedAccelerator>(std::move(m), t_accel);
        });
    }
    {
        SpanScope s(trace, "setup.firmware");
        auto fw = spec.ips ? fwlib::pigasus_hw_reorder() : fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
    }
    {
        SpanScope s(trace, "setup.boot");
        sys.host().boot_all();
        sys.run_cycles(500);
        if (spec.ips) {
            sys.host().set_rx_handler([probes = inst.probes.get(), t_host](net::PacketPtr pkt) {
                TallyScope t(t_host);
                ++probes->host_frames;
                probes->host_bytes += pkt->size();
                if (pkt->is_attack)
                    probes->attacks_at_host.insert(attack_key(pkt->id, unsigned(pkt->in_iface)));
            });
        }
        for (unsigned port = 0; port < kPorts; ++port)
            sys.add_source({.port = port, .line_gbps = 100.0, .load = 1.0}, std::move(gens[port]));
    }
    inst.setup_ns = now_ns() - t0;
    return inst;
}

uint64_t
Snapshot::sum(const std::string& prefix, const std::string& suffix) const {
    uint64_t total = 0;
    for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
        const std::string& n = it->first;
        if (n.compare(0, prefix.size(), prefix) != 0) break;
        if (suffix.empty()) {
            if (n.size() == prefix.size()) total += it->second;
            continue;
        }
        size_t i = prefix.size();
        while (i < n.size() && std::isdigit(static_cast<unsigned char>(n[i]))) ++i;
        if (i > prefix.size() && n.compare(i, std::string::npos, "." + suffix) == 0)
            total += it->second;
    }
    return total;
}

Snapshot
snapshot(Instance& inst) {
    System& sys = *inst.sys;
    Snapshot s;
    s.cycle = sys.kernel().now();
    for (unsigned i = 0; i < sys.rpu_count(); ++i) s.instret += sys.rpu(i).core().instret();
    s.fast_forwarded = sys.kernel().fast_forwarded_cycles();
    for (unsigned p = 0; p < kPorts; ++p) {
        s.sink_frames += sys.sink(p).frames();
        s.sink_bytes += sys.sink(p).bytes();
    }
    s.offered = inst.probes->offered;
    s.host_frames = inst.probes->host_frames;
    s.host_bytes = inst.probes->host_bytes;
    for (const auto& [name, c] : sys.stats().counters()) s.counters[name] = c.get();
    return s;
}

Delivery
delivery(const Snapshot& from, const Snapshot& to) {
    Delivery d;
    d.cycles = double(to.cycle - from.cycle);
    double secs = d.cycles / sim::kClockHz;
    uint64_t frames = to.sink_frames - from.sink_frames + to.host_frames - from.host_frames;
    uint64_t bytes = to.sink_bytes - from.sink_bytes + to.host_bytes - from.host_bytes;
    d.frames = double(frames);
    d.gbps = double(bytes) * 8.0 / secs / 1e9;
    d.mpps = double(frames) / secs / 1e6;
    return d;
}

namespace {

std::string
fmt(const char* f, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b);
    return buf;
}

}  // namespace

std::vector<Check>
check_window(Instance& inst, const Snapshot& from, const Snapshot& to) {
    std::vector<Check> out;
    System& sys = *inst.sys;
    unsigned faulted = 0;
    for (unsigned i = 0; i < sys.rpu_count(); ++i) faulted += sys.rpu(i).core_faulted();
    out.push_back({"no_core_faulted", faulted == 0, std::to_string(faulted) + " faulted"});

    Delivery d = delivery(from, to);
    switch (inst.workload) {
    case Workload::kFwd64: {
        double per_cycle = d.frames / d.cycles;
        out.push_back({"delivers_1.000_pkt_per_cycle", std::fabs(per_cycle - 1.0) < 0.0005,
                       fmt("%.4f packets/cycle over %.0f cycles", per_cycle, d.cycles)});
        break;
    }
    case Workload::kFwd1500: {
        double line = net::line_rate_goodput_gbps(inst.spec.size, 100.0 * kPorts);
        out.push_back({"line_rate_goodput", d.gbps >= 0.995 * line,
                       fmt("%.2f of %.2f Gbps", d.gbps, line)});
        break;
    }
    case Workload::kIps1k:
        out.push_back({"goodput_ge_195gbps", d.gbps >= 195.0,
                       fmt("%.2f Gbps over %.0f cycles", d.gbps, d.cycles)});
        break;
    }
    return out;
}

Check
check_attacks_delivered(Instance& inst, sim::Cycle drain) {
    Probes& p = *inst.probes;
    p.track_attacks = false;
    inst.sys->run_cycles(drain);
    uint64_t missing = 0;
    for (uint64_t k : p.attacks_offered) missing += p.attacks_at_host.count(k) == 0;
    return {"attacks_reach_host", !p.attacks_offered.empty() && missing == 0,
            std::to_string(p.attacks_offered.size()) + " offered, " + std::to_string(missing) +
                " missing"};
}

Check
check_oracle(Workload w, uint64_t seed) {
    Spec spec = spec_of(w);
    oracle::RunSpec rs;
    rs.rpu_count = spec.rpu_count;
    rs.seed = seed;
    rs.packet_size = spec.size;
    rs.load = 1.0;
    rs.max_packets = 1000;
    if (spec.ips) {
        exp::IpsParams ip;
        rs.pipeline = oracle::Pipeline::kPigasusHwReorder;
        rs.policy = lb::Policy::kRoundRobin;
        rs.hw_reassembler = true;
        rs.attack_fraction = ip.attack_fraction;
        rs.reorder_fraction = ip.reorder_fraction;
        rs.rule_count = ip.rule_count;
    }
    oracle::RunResult r = oracle::run_differential(rs);
    std::string detail = std::to_string(r.counts.offered) + " offered, " +
                         std::to_string(r.counts.divergences) + " divergences";
    if (!r.ok) detail += ": " + r.report.substr(0, 200);
    return {"oracle_differential", r.ok, detail};
}

}  // namespace simbench
