#include "core/system.h"

#include "sim/log.h"

namespace rosebud {

sim::ResourceFootprint
pr_region_capacity(unsigned rpu_count) {
    // Floorplan constants of the two shipped layouts (Figures 5-6).
    if (rpu_count > 8) return {27839, 55920, 36, 32, 168};
    return {64161, 128880, 114, 64, 384};
}

sim::ResourceFootprint
lb_region_capacity(unsigned rpu_count) {
    if (rpu_count > 8) return {78384, 158400, 144, 48, 576};
    return {114016, 230400, 180, 96, 648};
}

System::System(const SystemConfig& config) : config_(config) {
    if (config_.rpu_count == 0 || config_.rpu_count > 32 || config_.rpu_count % 4 != 0) {
        sim::fatal("System: rpu_count must be a positive multiple of 4 (<= 32)");
    }

    // RPUs first, then broadcast/fabric/sources: a deterministic default
    // tick order. Results must not depend on it — every cross-component
    // exchange goes through staged primitives, the race detector faults
    // same-cycle stage/read overlaps, and shuffle_tick_order() + the
    // fingerprint tests enforce bit-identical runs under any permutation.
    for (unsigned i = 0; i < config_.rpu_count; ++i) {
        rpu::Rpu::Config rc = config_.rpu_template;
        rc.id = uint8_t(i);
        rpus_.push_back(std::make_unique<rpu::Rpu>(kernel_, stats_, rc));
        rpus_.back()->core().set_predecode(config_.tuning.predecode);
    }
    kernel_.set_idle_skip(config_.tuning.idle_skip);

    lb::LoadBalancer::Config lbc;
    lbc.rpu_count = config_.rpu_count;
    lbc.policy = config_.lb_policy;
    lbc.reassembler = config_.hw_reassembler;
    lbc.custom_steer = config_.lb_custom_steer;
    lb_ = std::make_unique<lb::LoadBalancer>(stats_, lbc);
    lb_->attach(kernel_);

    msg::BroadcastNetwork::Config bc = config_.broadcast;
    bc.rpu_count = config_.rpu_count;
    broadcast_ = std::make_unique<msg::BroadcastNetwork>(kernel_, stats_, bc);

    dist::FabricConfig fc = config_.fabric;
    fc.rpu_count = config_.rpu_count;
    std::vector<rpu::Rpu*> raw;
    for (auto& r : rpus_) raw.push_back(r.get());
    fabric_ = std::make_unique<dist::Fabric>(kernel_, stats_, fc, *lb_, raw);

    host_ = std::make_unique<host::HostContext>(kernel_, stats_, *lb_, *fabric_, raw);

    // Wire the control and data channels.
    for (unsigned i = 0; i < config_.rpu_count; ++i) {
        rpu::Rpu* r = raw[i];
        r->set_egress_handler(
            [this, i](net::PacketPtr pkt) { return fabric_->rpu_egress(uint8_t(i), pkt); });
        r->set_slot_free_handler(
            [this](uint8_t rpu, uint8_t slot) { lb_->on_slot_free(rpu, slot); });
        r->set_slot_config_handler([this](uint8_t rpu, const rpu::SlotConfig& cfg) {
            lb_->on_slot_config(rpu, cfg);
        });
        r->set_slot_request_handler([this](uint8_t requester, uint8_t dst) {
            lb_->request_slot_routed(requester, dst);
        });
        r->set_broadcast_sender([this](uint8_t rpu, uint32_t off, uint32_t val) {
            return broadcast_->try_send(rpu, off, val);
        });
        broadcast_->set_deliver(
            i, [r](uint32_t off, uint32_t val) { r->broadcast_deliver(off, val); });

        // System-level boundary ports: which component drives which net is
        // only known here, at wiring time.
        std::string rn = r->name();
        kernel_.declare_port({rn, "broadcast.tx" + std::to_string(i),
                              sim::PortRecord::kWrite, 64, bc.tx_fifo_depth});
        kernel_.declare_port({"broadcast", rn + ".bcast_in", sim::PortRecord::kWrite, 64, 1});
        kernel_.declare_port({"broadcast", rn + ".bcast_notify", sim::PortRecord::kWrite, 64,
                              config_.rpu_template.bcast_notify_depth});
        kernel_.declare_port(
            {rn, "lb.ctrl.r" + std::to_string(i), sim::PortRecord::kWrite, 64, 1});
        kernel_.declare_port(
            {rn, "lb.resp.r" + std::to_string(i), sim::PortRecord::kRead, 64, 1});
    }
    auto hook = [this](net::Stage stage, const net::Packet& pkt) {
        dispatch_packet_event(stage, pkt);
    };
    fabric_->set_trace(hook);
    for (rpu::Rpu* r : raw) r->set_trace(hook);
    lb_->set_slot_response_handler(
        [this](uint8_t requester, uint8_t dst, std::optional<uint8_t> slot) {
            rpus_[requester]->slot_response(dst, slot);
        });

    for (unsigned port = 0; port < 2; ++port) {
        sinks_.push_back(std::make_unique<dist::TrafficSink>(
            kernel_, stats_, "sink.port" + std::to_string(port)));
        dist::TrafficSink* sink = sinks_.back().get();
        fabric_->set_mac_tx_sink(port,
                                 [sink](net::PacketPtr pkt) { sink->deliver(pkt); });
        kernel_.declare_port({"sink.port" + std::to_string(port),
                              "fabric.mac_tx.p" + std::to_string(port),
                              sim::PortRecord::kRead, 512, 0});
    }

    // Pre-cycle-0 gate: the static lint runs once, right before the first
    // tick, so late wiring (sources, accelerators) is already elaborated.
    if (config_.lint != LintMode::kOff) {
        kernel_.set_prestep_hook([this](sim::Kernel&) {
            auto violations = lint_check();
            if (!violations.empty()) {
                std::string msg =
                    "netlist lint failed:\n" + lint::report(violations);
                if (config_.lint == LintMode::kEnforce) sim::fatal(msg);
                sim::warn(msg);
            }
        });
    }
}

System::~System() = default;

void
System::attach_accelerators(
    const std::function<std::unique_ptr<rpu::Accelerator>()>& factory) {
    for (auto& r : rpus_) r->attach_accelerator(factory());
}

dist::TrafficSource&
System::add_source(const dist::TrafficSource::Config& cfg, dist::TrafficSource::GenFn gen) {
    sources_.push_back(
        std::make_unique<dist::TrafficSource>(kernel_, cfg, *fabric_, std::move(gen)));
    return *sources_.back();
}

uint64_t
System::add_packet_observer(PacketObserver fn) {
    // Compact slots freed by remove_packet_observer (never during a
    // dispatch, so iteration in dispatch_packet_event stays valid).
    std::erase_if(observers_, [](const Observer& o) { return !o.fn; });
    uint64_t handle = next_observer_handle_++;
    observers_.push_back({handle, std::move(fn)});
    return handle;
}

void
System::remove_packet_observer(uint64_t handle) {
    // Null the slot instead of erasing so removal from inside a dispatch
    // does not invalidate the iteration.
    for (auto& o : observers_) {
        if (o.handle == handle) o.fn = nullptr;
    }
}

void
System::dispatch_packet_event(net::Stage stage, const net::Packet& pkt) {
    sim::Cycle now = kernel_.now();
    for (size_t i = 0; i < observers_.size(); ++i) {
        if (observers_[i].fn) observers_[i].fn(stage, pkt, now);
    }
}

std::vector<System::ResourceRow>
System::resource_report() const {
    std::vector<ResourceRow> rows;
    unsigned n = config_.rpu_count;

    sim::ResourceFootprint rpu_fp = rpus_.front()->base_resources();
    rows.push_back({"Single RPU", rpu_fp});
    rows.push_back({"Remaining (PR)", pr_region_capacity(n).saturating_sub(rpu_fp)});

    sim::ResourceFootprint lb_fp = lb_->resources();
    rows.push_back({"LB", lb_fp});
    rows.push_back({"Remaining", lb_region_capacity(n).saturating_sub(lb_fp)});

    sim::ResourceFootprint ic = fabric_->interconnect_resources();
    rows.push_back({"Single Interconnect", ic});

    sim::ResourceFootprint cmac{6397, 14849, 0, 18, 0};
    sim::ResourceFootprint pcie{41526, 63742, 110, 32, 0};
    rows.push_back({"CMAC", cmac});
    rows.push_back({"PCIe", pcie});

    sim::ResourceFootprint sw = fabric_->switching_resources();
    rows.push_back({"Switching", sw});

    sim::ResourceFootprint total =
        rpu_fp * n + lb_fp + ic * n + cmac + pcie + sw;
    rows.push_back({"Complete design", total});
    rows.push_back({"VU9P device", sim::kXcvu9p});
    return rows;
}

std::vector<lint::Violation>
System::lint_check() const {
    auto violations = lint::check_netlist(kernel_, lint::paper_width_table());

    // Resource-model consistency: the per-component rows of Tables 1-2 must
    // sum exactly into "Complete design", which must fit the VU9P, and the
    // replicated blocks must fit their pre-laid-out PR regions.
    unsigned n = config_.rpu_count;
    auto rows = resource_report();
    auto row = [&](const std::string& name) -> const sim::ResourceFootprint& {
        for (const auto& r : rows) {
            if (r.name == name) return r.fp;
        }
        sim::panic("lint_check: missing resource row " + name);
    };
    std::vector<lint::ResourceItem> children = {
        {"Single RPU", row("Single RPU"), n},
        {"LB", row("LB"), 1},
        {"Single Interconnect", row("Single Interconnect"), n},
        {"CMAC", row("CMAC"), 1},
        {"PCIe", row("PCIe"), 1},
        {"Switching", row("Switching"), 1},
    };
    auto append = [&](std::vector<lint::Violation> v) {
        violations.insert(violations.end(), std::make_move_iterator(v.begin()),
                          std::make_move_iterator(v.end()));
    };
    append(lint::check_resource_sum("Complete design", row("Complete design"), children));
    append(lint::check_resource_fit("Complete design", row("Complete design"),
                                    sim::kXcvu9p));
    append(lint::check_resource_fit("Single RPU (PR region)", row("Single RPU"),
                                    pr_region_capacity(n)));
    append(lint::check_resource_fit("LB (PR block)", row("LB"), lb_region_capacity(n)));
    return violations;
}

namespace {

void
fnv_mix(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
fnv_mix(uint64_t& h, const std::string& s) {
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ull;
    }
    fnv_mix(h, s.size());
}

}  // namespace

uint64_t
System::state_fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    // The stats map is ordered, so iteration itself is deterministic.
    for (const auto& [name, c] : stats_.counters()) {
        fnv_mix(h, name);
        fnv_mix(h, c.get());
    }
    for (const auto& sink : sinks_) {
        fnv_mix(h, sink->frames());
        fnv_mix(h, sink->bytes());
        // The latency histogram does not depend on delivery order, so it
        // absorbs any same-cycle reordering; its exact sum moves with any
        // single latency.
        const sim::Histogram& latency = sink->latency();
        fnv_mix(h, latency.count());
        fnv_mix(h, latency.sum());
        fnv_mix(h, latency.min());
        fnv_mix(h, latency.max());
        latency.for_each_nonzero([&](uint64_t upper, uint64_t n) {
            fnv_mix(h, upper);
            fnv_mix(h, n);
        });
    }
    for (const auto& r : rpus_) {
        fnv_mix(h, r->debug_low());
        fnv_mix(h, r->debug_high());
        fnv_mix(h, r->occupancy());
        // Core time: a sleeping RPU's catch-up replay must land the core on
        // exactly the cycle and instruction counts a live run reaches.
        fnv_mix(h, r->core().cycles());
        fnv_mix(h, r->core().instret());
    }
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        fnv_mix(h, lb_->free_slots(uint8_t(r)));
    }
    return h;
}

}  // namespace rosebud
