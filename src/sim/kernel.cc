#include "sim/kernel.h"

#include <algorithm>
#include <unordered_map>

#include "sim/log.h"

namespace rosebud::sim {

namespace {

/// Shortest timed sleep the sweep grants: a sleeper due sooner stays
/// awake, because the sleep and wake bookkeeping would cost more host
/// time than the ticks it saves.
constexpr Cycle kMinTimedSleep = 4;

}  // namespace

Component::Component(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
    kernel.add_component(this);
}

void
Kernel::note_wake(Component& c) {
    if (c.due_ != kNever) drop_timed(c);
    if (phase_ != Phase::kIdle) {
        // A wake during the tick (or, defensively, commit) phase defers
        // the first scheduled tick to the next cycle: the sleeper could
        // not have observed the producer's staged output anyway, and
        // deferring keeps serial and shuffled schedules bit-identical
        // regardless of whether the sleeper's slot in the tick order had
        // already been passed. The skipped window —
        // *including* the current cycle — is accounted right here, while
        // committed state is still exactly what the sleeper would have
        // observed live (the producer's effect is only staged); its
        // commit() still runs this cycle, integrating any state the
        // producer handed over.
        const Cycle t = now_;
        if (c.unaccounted_) {
            Cycle skipped = t + 1 - c.sleep_since_;
            if (skipped > 0) c.on_wake(skipped);
            c.sleep_since_ = t + 1;
            c.unaccounted_ = false;
        }
        c.wake_at_ = t + 1;
    } else {
        // Host-phase wake: the component ticks this coming cycle; its
        // accounting is flushed by the tick loop (host mutators that
        // change sleeper-visible state call flush_skipped() first).
        c.wake_at_ = now_;
    }
    mark_awake(c);
}

void
Kernel::flush_wake_accounting(Component* c) {
    if (!c->unaccounted_) return;
    const Cycle t = now_;
    Cycle skipped = t - c->sleep_since_;
    if (skipped > 0) c->on_wake(skipped);
    c->sleep_since_ = t;
    // A component flushed while still asleep (host-boundary sync) keeps
    // accumulating from here; a woken one is fully accounted.
    c->unaccounted_ = !c->awake();
}

void
Component::flush_skipped() { kernel_.flush_wake_accounting(this); }

void
Kernel::sync_sleepers() {
    for (Component* c : components_) flush_wake_accounting(c);
}

void
Kernel::wake_all() {
    for (Component* c : components_) {
        if (!c->awake()) {
            mark_awake(*c);
            c->wake_at_ = now_;
            c->due_ = kNever;
        }
        flush_wake_accounting(c);
    }
    timed_.clear();
    next_due_ = kNever;
}

void
Kernel::set_idle_skip(bool on) {
    idle_skip_ = on;
    if (!on) wake_all();
}

void
Kernel::sleep_sweep() {
    for_each_awake([this](Component* c) {
        // Just-woken components get one tick before they may sleep again.
        if (c->wake_at_ >= now_) return;
        if (!c->quiescent()) return;
        const Cycle due = c->wake_due();
        if (due != kNever) {
            if (due < now_ + kMinTimedSleep) return;
            timed_.push_back(c);
            next_due_ = std::min(next_due_, due);
        }
        c->due_ = due;
        awake_mask_[c->slot_ / 64] &= ~slot_bit(c->slot_);
        if (!c->unaccounted_) {
            c->sleep_since_ = now_;  // now_ is already the next cycle here
            c->unaccounted_ = true;
        }
    });
}

void
Kernel::wake_timed() {
    // Due sleepers wake like a host-phase wake: they tick this cycle, and
    // the tick loop first replays the skipped ticks through on_wake().
    next_due_ = kNever;
    size_t keep = 0;
    for (Component* c : timed_) {
        if (c->due_ <= now_) {
            c->due_ = kNever;
            mark_awake(*c);
            c->wake_at_ = now_;
            continue;
        }
        next_due_ = std::min(next_due_, c->due_);
        timed_[keep++] = c;
    }
    timed_.resize(keep);
}

void
Kernel::drop_timed(Component& c) {
    // An input woke a timed sleeper before its due cycle.
    c.due_ = kNever;
    timed_.erase(std::find(timed_.begin(), timed_.end(), &c));
    next_due_ = kNever;
    for (const Component* t : timed_) next_due_ = std::min(next_due_, t->due_);
}

void
Kernel::build_wake_map() {
    wake_lists_.assign(nets_.size(), {});
    std::unordered_map<std::string, Component*> by_name;
    by_name.reserve(components_.size());
    for (Component* c : components_) by_name[c->name()] = c;
    for (const PortRecord& p : ports_) {
        const NetId net = net_id(p.net);
        if (net == kNoNet) continue;  // undeclared: the lint reports it
        // Registered-credit nets return credit with one cycle of latency: a
        // pop is an observable event for the *writer* (its can_push answer
        // changes next cycle), so the writer needs a wake edge too — a
        // producer sleeping on a full FIFO must tick again when space opens.
        if (p.dir == PortRecord::kWrite &&
            nets_[net].credit != NetRecord::kCreditRegistered) {
            continue;
        }
        auto it = by_name.find(p.component);
        if (it == by_name.end()) continue;  // external endpoint (host, wire)
        auto& targets = wake_lists_[net];
        if (std::find(targets.begin(), targets.end(), it->second) == targets.end())
            targets.push_back(it->second);
    }
    wake_map_built_ = true;
}

void
Kernel::step() {
    if (!prestep_done_) {
        prestep_done_ = true;
        if (prestep_hook_) prestep_hook_(*this);
    }
    const bool skipping = idle_skip_effective();
    if (skipping && !wake_map_built_) build_wake_map();
    if (now_ >= next_due_) wake_timed();

    // A wake during this loop may set a bit for a component that must not
    // tick before the next cycle; the wake_at_ test skips it in any word.
    phase_ = Phase::kTick;
    for_each_awake([this](Component* c) {
        if (c->wake_at_ > now_) return;
        // Set the actor before flushing: on_wake() may replay component
        // ticks that touch the component's own FIFOs.
        active_ = c;
        flush_wake_accounting(c);
        c->tick();
    });
    active_ = nullptr;

    // Only what staged an update this cycle commits — including a sleeper
    // woken mid-tick, whose staged input (e.g. an RPU's rx_pending_) must
    // land this edge. Index loop: a commit may request another while we
    // drain.
    phase_ = Phase::kCommit;
    for (size_t i = 0; i < commit_queue_.size(); ++i) {
        Clocked* c = commit_queue_[i];
        c->commit_queued_ = false;
        c->commit();
    }
    commit_queue_.clear();
    phase_ = Phase::kIdle;
    if (telemetry_) telemetry_->end_cycle(now_);
    if (health_probe_) health_probe_->on_cycle(now_);
    ++now_;
    // Sweep for sleepers every 4th cycle only: quiescent() is virtual and
    // the sweep polls every awake component. Delaying sleep is always exact
    // (a quiescent component's live ticks match its on_wake replay); it
    // only costs at most 3 extra stepped cycles per sleep transition.
    if (skipping && (now_ & 3) == 0) sleep_sweep();
}

void
Kernel::run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        if (all_asleep()) {
            // Whole-system quiescence: only a timed sleeper's due cycle
            // can end it inside this loop (any other wake needs a
            // host-side call).
            const Cycle to = std::min(end, next_due_);
            fast_forwarded_ += to - now_;
            now_ = to;
            if (now_ == end) break;
        }
        step();
    }
    sync_sleepers();
}

namespace {

// splitmix64: small, well-mixed PRNG for the deterministic shuffle.
uint64_t
mix64(uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

void
Kernel::shuffle_tick_order(uint64_t seed) {
    uint64_t state = seed;
    // Fisher-Yates over the current registration order.
    for (size_t i = components_.size(); i > 1; --i) {
        size_t j = size_t(mix64(state) % i);
        std::swap(components_[i - 1], components_[j]);
    }
    // The awake mask is indexed by slot: move each bit with its component.
    const std::vector<uint64_t> old_mask = awake_mask_;
    std::fill(awake_mask_.begin(), awake_mask_.end(), 0);
    for (size_t i = 0; i < components_.size(); ++i) {
        Component* c = components_[i];
        if (old_mask[c->slot_ / 64] & slot_bit(c->slot_)) awake_mask_[i / 64] |= slot_bit(i);
        c->slot_ = i;
    }
}

std::vector<std::string>
Kernel::tick_order() const {
    std::vector<std::string> names;
    names.reserve(components_.size());
    for (const Component* c : components_) names.push_back(c->name());
    return names;
}

void
Kernel::unregister_occupancy_probe(NetId id, const void* owner) {
    for (auto it = occupancy_probes_.begin(); it != occupancy_probes_.end();
         ++it) {
        if (it->id == id && it->owner == owner) {
            occupancy_probes_.erase(it);
            return;
        }
    }
}

NetId
Kernel::declare_net(NetRecord net) {
    const NetId id = NetId(nets_.size());
    if (!net_ids_.try_emplace(net.name, id).second)
        panic("net '" + net.name + "' declared twice");
    wake_map_built_ = false;
    nets_.push_back(std::move(net));
    return id;
}

NetId
Kernel::net_id(const std::string& name) const {
    auto it = net_ids_.find(name);
    return it == net_ids_.end() ? kNoNet : it->second;
}

}  // namespace rosebud::sim
