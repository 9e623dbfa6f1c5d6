#include "obs/telemetry.h"

#include "core/system.h"
#include "lint/netlist.h"
#include "sim/kernel.h"

namespace rosebud::obs {

namespace {

unsigned
bits_for(size_t max_value) {
    unsigned bits = 1;
    while ((uint64_t(1) << bits) <= max_value && bits < 32) ++bits;
    return bits;
}

}  // namespace

Telemetry::Telemetry() : Telemetry(Config{}) {}

Telemetry::Telemetry(Config cfg) : cfg_(std::move(cfg)) {}

Telemetry::~Telemetry() { detach(); }

void
Telemetry::attach(System& sys) {
    kernel_ = &sys.kernel();
    // Pre-seed every declared net so fully idle nets still show up with an
    // exact idle count (and so waveform widths come from declared depths).
    const auto& nets = kernel_->nets();
    by_id_.assign(nets.size(), nullptr);
    for (sim::NetId id = 0; id < nets.size(); ++id) {
        NetStats& ns = nets_[nets[id].name];
        ns.capacity = std::max(ns.capacity, nets[id].depth);
        by_id_[id] = &ns;
    }
    kernel_->set_telemetry(this);
}

void
Telemetry::detach() {
    if (kernel_ && kernel_->telemetry() == this) kernel_->set_telemetry(nullptr);
    kernel_ = nullptr;
}

Telemetry::NetStats&
Telemetry::net(sim::NetId id) {
    if (id >= by_id_.size()) by_id_.resize(id + 1, nullptr);
    if (by_id_[id]) return *by_id_[id];
    // First sighting of a net declared after attach: backfill the cycles
    // it was not observed as idle so its four buckets still sum to
    // cycles_observed().
    const sim::NetRecord& rec = kernel_->nets()[id];
    auto [it, fresh] = nets_.try_emplace(rec.name);
    if (fresh) {
        it->second.idle = cycles_observed_;
        it->second.capacity = rec.depth;
    }
    by_id_[id] = &it->second;
    return it->second;
}

void
Telemetry::net_event(sim::NetId id, NetEvent ev) {
    NetStats& ns = net(id);
    switch (ev) {
    case NetEvent::kPushOk:
        ++ns.pushes;
        ns.f_moved = true;
        break;
    case NetEvent::kPushBlocked:
        ++ns.blocked;
        ns.f_blocked = true;
        break;
    case NetEvent::kPop:
        ++ns.pops;
        ns.f_moved = true;
        break;
    case NetEvent::kPollEmpty:
        ++ns.polls_empty;
        ns.f_polled = true;
        break;
    }
}

void
Telemetry::capture_net(const std::string& name, NetStats& ns, NetState state,
                       uint64_t completed_cycle) {
    const uint64_t t = uint64_t(sim::cycles_to_ns(completed_cycle));
    if (ns.sig_state < 0) {
        ns.sig_state = vcd_.add_signal(name + ".state", 2);
        // Nets without an occupancy probe (abstract links) trace a flat 0.
        ns.sig_occ = vcd_.add_signal(name + ".occ",
                                     bits_for(std::max(ns.capacity, ns.peak_occ)));
    }
    if (unsigned(state) != ns.last_state) {
        vcd_.change(t, ns.sig_state, uint64_t(state));
        ns.last_state = unsigned(state);
    }
    if (uint64_t(ns.occ) != ns.last_occ) {
        vcd_.change(t, ns.sig_occ, uint64_t(ns.occ));
        ns.last_occ = uint64_t(ns.occ);
    }
}

void
Telemetry::end_cycle(uint64_t completed) {
    for (const auto& probe : kernel_->occupancy_probes()) {
        // Skip the rpuN.slots census (no net) and nets not yet seen.
        if (probe.id >= by_id_.size() || !by_id_[probe.id]) continue;
        NetStats& ns = *by_id_[probe.id];
        ns.occ = probe.fn();
        ns.peak_occ = std::max(ns.peak_occ, ns.occ);
    }
    for (auto& [name, ns] : nets_) {
        NetState state;
        if (ns.f_blocked) {
            state = NetState::kStalled;
            ++ns.stalled;
            ++ns.e_stalled;
        } else if (ns.f_moved) {
            state = NetState::kBusy;
            ++ns.busy;
            ++ns.e_busy;
        } else if (ns.f_polled) {
            state = NetState::kStarved;
            ++ns.starved;
        } else {
            state = NetState::kIdle;
            ++ns.idle;
        }
        ns.f_moved = ns.f_blocked = ns.f_polled = false;
        if (cfg_.capture_vcd) capture_net(name, ns, state, completed);
    }
    ++cycles_observed_;
    if (cfg_.epoch_cycles && cycles_observed_ % cfg_.epoch_cycles == 0) close_epoch();
}

void
Telemetry::close_epoch() {
    Epoch ep;
    ep.end_cycle = cycles_observed_;
    // Per-component busy/stall fractions: average over the component's
    // instrumented nets (each net contributes epoch_cycles observations).
    std::map<std::string, uint64_t> comp_busy, comp_stalled, comp_nets;
    for (auto& [name, ns] : nets_) {
        const std::string comp = lint::component_of(name);
        comp_busy[comp] += ns.e_busy;
        comp_stalled[comp] += ns.e_stalled;
        comp_nets[comp] += 1;
        ns.e_busy = ns.e_stalled = 0;
    }
    for (const auto& [comp, n] : comp_nets) {
        const double denom = double(n) * double(cfg_.epoch_cycles);
        ep.busy_frac[comp] = double(comp_busy[comp]) / denom;
        ep.stall_frac[comp] = double(comp_stalled[comp]) / denom;
    }
    epochs_.push_back(std::move(ep));
}

}  // namespace rosebud::obs
