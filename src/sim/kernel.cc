#include "sim/kernel.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "sim/log.h"
#include "sim/shard.h"

namespace rosebud::sim {

namespace {

inline void
cpu_pause() {
#if defined(__x86_64__) || defined(_M_X64)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

}  // namespace

/// Per-shard execution state for the time-decoupled executor
/// (DESIGN.md §16). `done` is the shard's published progress: the first
/// cycle it has NOT yet completed. Peers poll it with acquire loads; the
/// release store at the end of each local cycle (or skip window)
/// publishes everything the shard committed — and drained into its cut
/// channels — up to that point.
struct Kernel::ShardRun {
    unsigned index = 0;
    std::vector<Component*> comps;
    std::vector<Component*> gated;  ///< comps with the self-advance contract
    std::vector<ShardSpec::Wait> start_waits;
    std::vector<unsigned> end_waits;
    std::vector<CutChannelBase*> in_channels;
    std::function<void()> begin_hook;
    std::function<void(Cycle)> end_hook;
    bool commits_always_clocked = false;

    // Runner-private cursors (touched only by the thread currently
    // advancing this shard).
    Cycle cur = 0;  ///< next local cycle to execute
    Cycle end = 0;  ///< run bound (exclusive)

    /// Heuristic: only attempt the time-skip computation after a cycle
    /// whose tick phase ran no component (a busy shard would waste a full
    /// component scan per cycle discovering skip == 0).
    bool try_skip = true;

    std::atomic<Cycle> done{0};
    // Read only through t_shard_, i.e. by the thread advancing this shard.
    Cycle local_now = 0;
    Phase local_phase = Phase::kIdle;
    std::vector<Clocked*> commit_queue;
};

thread_local Kernel::ShardRun* Kernel::t_shard_ = nullptr;

Component::Component(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
    kernel.add_component(this);
}

Kernel::Kernel() = default;

Kernel::~Kernel() = default;

void
Kernel::note_wake(Component& c) {
    // phase()/now() route to the calling shard's local clock during a
    // decoupled run (all wakes of a component happen on its own shard's
    // worker) and to the global clock in the barrier regime.
    if (phase() != Phase::kIdle) {
        // A wake during the tick (or, defensively, commit) phase defers
        // the first scheduled tick to the next cycle: the sleeper could
        // not have observed the producer's staged output anyway, and
        // deferring keeps every schedule (serial, shuffled, decoupled)
        // bit-identical regardless of whether the sleeper's slot in the
        // tick order had already been passed. The skipped window —
        // *including* the current cycle — is accounted right here, while
        // committed state is still exactly what the sleeper would have
        // observed live (the producer's effect is only staged); its
        // commit() still runs this cycle, integrating any state the
        // producer handed over.
        const Cycle t = now();
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
        c.wake_at_ = now();
    }
    awake_count_.fetch_add(1, std::memory_order_relaxed);
}

void
Kernel::flush_wake_accounting(Component* c) {
    if (!c->unaccounted_) return;
    // now() is the flushing shard's local clock during a decoupled run
    // (a component is only flushed by its own shard's worker) and the
    // global clock otherwise.
    const Cycle t = now();
    Cycle skipped = t - c->sleep_since_;
    if (skipped > 0) c->on_wake(skipped);
    c->sleep_since_ = t;
    // A component flushed while still asleep (host-boundary sync) keeps
    // accumulating from here; a woken one is fully accounted.
    c->unaccounted_ = !c->awake_;
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
        if (!c->awake_) {
            c->awake_ = true;
            c->wake_at_ = now_;
            awake_count_.fetch_add(1, std::memory_order_relaxed);
        }
        flush_wake_accounting(c);
    }
}

void
Kernel::set_idle_skip(bool on) {
    idle_skip_ = on;
    if (!on) wake_all();
}

void
Kernel::sleep_sweep() {
    for (Component* c : components_) {
        if (!c->awake_) continue;
        // Just-woken components get one tick before they may sleep again.
        if (c->wake_at_ >= now_) continue;
        if (!c->quiescent()) continue;
        c->awake_ = false;
        awake_count_.fetch_sub(1, std::memory_order_relaxed);
        if (!c->unaccounted_) {
            c->sleep_since_ = now_;  // now_ is already the next cycle here
            c->unaccounted_ = true;
        }
    }
}

void
Kernel::build_wake_map() {
    wake_readers_.clear();
    std::unordered_map<std::string, Component*> by_name;
    by_name.reserve(components_.size());
    for (Component* c : components_) by_name[c->name()] = c;
    auto add = [&](const std::string& net, const std::string& component) {
        auto it = by_name.find(component);
        if (it == by_name.end()) return;  // external endpoint (host, wire)
        auto& targets = wake_readers_[net];
        if (std::find(targets.begin(), targets.end(), it->second) == targets.end())
            targets.push_back(it->second);
    };
    // Registered-credit nets return credit with one cycle of latency: a
    // pop is an observable event for the *writer* (its can_push answer
    // changes next cycle), so the writer needs a wake edge too — a
    // producer sleeping on a full FIFO must tick again when space opens.
    std::unordered_map<std::string, bool> registered_credit;
    for (const NetRecord& n : nets_) {
        registered_credit[n.name] = n.credit == NetRecord::kCreditRegistered;
    }
    for (const PortRecord& p : ports_) {
        if (p.dir == PortRecord::kRead) {
            add(p.net, p.component);
        } else if (p.dir == PortRecord::kWrite && registered_credit[p.net]) {
            add(p.net, p.component);
        }
    }
    wake_map_built_ = true;
    ++wake_epoch_;
}

const std::vector<Component*>*
Kernel::wake_list(const std::string& net) const {
    auto it = wake_readers_.find(net);
    return it == wake_readers_.end() ? nullptr : &it->second;
}

void
Kernel::step() {
    if (!prestep_done_) {
        prestep_done_ = true;
        if (prestep_hook_) prestep_hook_(*this);
    }
    const bool skipping = idle_skip_effective();
    if (skipping && !wake_map_built_) build_wake_map();

    phase_ = Phase::kTick;
    for (Component* c : components_) {
        if (!c->awake_) continue;
        if (c->wake_at_ > now_) continue;
        // Set the actor before flushing: on_wake() may replay component
        // ticks that touch the component's own FIFOs.
        active_ = c;
        flush_wake_accounting(c);
        c->tick();
    }
    active_ = nullptr;

    phase_ = Phase::kCommit;
    for (Component* c : components_) {
        // Commits run for every awake component — including ones woken
        // mid-tick whose first tick is next cycle: their staged input
        // (e.g. an RPU's rx_pending_) must be integrated this edge.
        if (!c->awake_) continue;
        active_ = c;
        c->commit();
    }
    active_ = nullptr;
    for (Clocked* c : clocked_) c->commit();
    if (telemetry_) {
        // Telemetry needs per-cycle occupancy from every primitive, so the
        // lazy set is swept in (deterministic) registration order.
        for (Clocked* c : lazy_clocked_) {
            c->commit_queued_ = false;
            c->commit();
        }
        commit_queue_.clear();
    } else {
        // Index loop: commits above (e.g. a component integrating staged
        // input into one of its FIFOs) may append while we drain.
        for (size_t i = 0; i < commit_queue_.size(); ++i) {
            Clocked* c = commit_queue_[i];
            c->commit_queued_ = false;
            c->commit();
        }
        commit_queue_.clear();
    }
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

// --- time-decoupled execution (DESIGN.md §16) --------------------------------

std::string
Kernel::set_shard_spec(ShardSpec spec) {
    if (decoupled_live_.load(std::memory_order_relaxed))
        return "cannot install a shard spec during a decoupled run";
    if (spec.shards.size() < 2) return "shard spec needs at least 2 shards";
    if (spec.primary >= spec.shards.size())
        return "primary shard index out of range";
    std::unordered_map<const Component*, unsigned> owner;
    for (unsigned s = 0; s < spec.shards.size(); ++s) {
        const ShardSpec::Shard& sh = spec.shards[s];
        for (Component* c : sh.components) {
            if (c == nullptr) return "null component in shard spec";
            if (!owner.emplace(c, s).second)
                return "component '" + c->name() + "' appears in two shards";
        }
        for (const ShardSpec::Wait& w : sh.start_waits) {
            if (w.shard >= spec.shards.size() || w.shard == s)
                return "start wait references an invalid shard";
            if (w.lookahead == 0)
                return "start wait with zero lookahead (no safe decoupling)";
        }
        for (unsigned u : sh.end_waits) {
            if (u >= spec.shards.size() || u == s)
                return "end wait references an invalid shard";
        }
    }
    for (Component* c : components_) {
        if (owner.find(c) == owner.end())
            return "component '" + c->name() + "' not covered by any shard";
    }
    if (owner.size() != components_.size())
        return "shard spec names a component not registered with this kernel";
    spec_ = std::make_unique<ShardSpec>(std::move(spec));
    shard_runs_.clear();
    shard_runs_.reserve(spec_->shards.size());
    for (unsigned s = 0; s < spec_->shards.size(); ++s) {
        const ShardSpec::Shard& sh = spec_->shards[s];
        auto sr = std::make_unique<ShardRun>();
        sr->index = s;
        sr->comps = sh.components;
        sr->start_waits = sh.start_waits;
        sr->end_waits = sh.end_waits;
        sr->in_channels = sh.in_channels;
        sr->begin_hook = sh.begin_hook;
        sr->end_hook = sh.end_hook;
        sr->commits_always_clocked = (s == spec_->primary);
        for (Component* c : sr->comps)
            if (c->decoupled_gated_) sr->gated.push_back(c);
        shard_runs_.push_back(std::move(sr));
    }
    return {};
}

void
Kernel::clear_shard_spec() {
    spec_.reset();
    shard_runs_.clear();
}

bool
Kernel::decoupled_effective() const {
    return spec_ != nullptr && !race_check_ && telemetry_ == nullptr &&
           health_probe_ == nullptr;
}

void
Kernel::decoupled_request_commit(Clocked* c) {
    ShardRun* sr = t_shard_;
    if (sr == nullptr) {
        // Defensive: a host thread staging during a decoupled run has no
        // shard identity; park the element on the global queue, which the
        // next barrier step drains. (Shard workers never touch that queue.)
        commit_queue_.push_back(c);
        return;
    }
    sr->commit_queue.push_back(c);
}

Cycle
Kernel::decoupled_now() const {
    const ShardRun* sr = t_shard_;
    return sr ? sr->local_now : now_;
}

Kernel::Phase
Kernel::decoupled_phase() const {
    const ShardRun* sr = t_shard_;
    return sr ? sr->local_phase : phase_;
}

const std::atomic<Cycle>*
Kernel::shard_done_ptr(unsigned shard) const {
    if (shard >= shard_runs_.size()) return nullptr;
    return &shard_runs_[shard]->done;
}

/// Put to sleep every quiescent component of `sr` (the shard-local twin
/// of sleep_sweep; `next` is the shard's next local cycle).
void
Kernel::shard_sleep_sweep(ShardRun& sr, Cycle next) {
    for (Component* c : sr.comps) {
        if (!c->awake_) continue;
        if (c->wake_at_ >= next) continue;
        if (!c->quiescent()) continue;
        c->awake_ = false;
        awake_count_.fetch_sub(1, std::memory_order_relaxed);
        if (!c->unaccounted_) {
            c->sleep_since_ = next;
            c->unaccounted_ = true;
        }
    }
}

/// Advance `sr` by up to `budget` local cycles, never blocking: when a
/// conservative wait is unsatisfied the function returns so the caller
/// can run a peer (cooperative mode) or spin briefly (thread mode).
/// Returns true if any progress — executed or skipped cycles — was made.
///
/// The fast path is the *time skip*: when every component of the shard is
/// either asleep or promises pure time advance (decoupled_lookahead), and
/// every inbound cut channel is provably quiet over a window (no pending
/// tag, producer progress past it), the window collapses into one cursor
/// jump. This is the payoff of local clocks: the barrier kernel can only
/// fast-forward when the *whole* system is quiescent, so a single awake
/// traffic source pins every cycle; a decoupled shard skips its own idle
/// windows regardless of what its peers are doing.
bool
Kernel::advance_shard(ShardRun& sr, Cycle budget) {
    ShardRun* prev = t_shard_;
    t_shard_ = &sr;
    bool progress = false;
    while (sr.cur < sr.end && budget > 0) {
        const Cycle t = sr.cur;

        // Conservative gates for cycle t, evaluated without blocking.
        bool blocked = false;
        for (const ShardSpec::Wait& w : sr.start_waits) {
            const Cycle target = t + 1 > w.lookahead ? t + 1 - w.lookahead : 0;
            if (shard_runs_[w.shard]->done.load(std::memory_order_acquire) <
                target) {
                blocked = true;
                break;
            }
        }
        if (!blocked) {
            for (unsigned u : sr.end_waits) {
                if (shard_runs_[u]->done.load(std::memory_order_acquire) <
                    t + 1) {
                    blocked = true;
                    break;
                }
            }
        }
        if (!blocked) {
            for (Component* c : sr.gated) {
                if (c->awake_ && !c->decoupled_runnable(t)) {
                    blocked = true;
                    break;
                }
            }
        }
        if (blocked) break;

        // Time-skip fast path. On a shard with no self-advancing (gated)
        // components this is attempted only out of an idle cycle — a busy
        // shard would waste a full component scan per cycle discovering
        // skip == 0, and executing is always correct. A gated component
        // (e.g. a paced source) ticks on every executed cycle yet still
        // promises lookahead windows, so its shard always attempts.
        Cycle skip = (sr.try_skip || !sr.gated.empty()) ? sr.end - t : 0;
        if (skip > budget) skip = budget;
        for (Component* c : sr.comps) {
            if (skip == 0) break;
            if (!c->awake_) continue;
            const Cycle wa = c->wake_at_;
            const Cycle la =
                wa > t ? wa - t
                       : (c->decoupled_gated_ ? c->decoupled_lookahead() : 0);
            if (la < skip) skip = la;
        }
        for (CutChannelBase* ch : sr.in_channels) {
            if (skip == 0) break;
            // Cycles strictly before the earliest pending tag (or, with an
            // empty queue, before the producer's published progress) need
            // no drain; the first cycle that might is executed in full.
            // Read `done` BEFORE the queue: a push of tag s happens-before
            // the producer's done=s+1 store, so any push the queue read
            // misses must carry a tag >= the done value already read.
            const Cycle d = ch->producer_done();
            Cycle tag = 0;
            const Cycle lim = ch->earliest_pending(&tag) ? tag : d;
            const Cycle h = lim > t ? lim - t : 0;
            if (h < skip) skip = h;
        }
        for (const ShardSpec::Wait& w : sr.start_waits) {
            if (skip == 0) break;
            const Cycle d =
                shard_runs_[w.shard]->done.load(std::memory_order_acquire) +
                w.lookahead;
            const Cycle h = d > t ? d - t : 0;
            if (h < skip) skip = h;
        }
        for (unsigned u : sr.end_waits) {
            if (skip == 0) break;
            const Cycle d =
                shard_runs_[u]->done.load(std::memory_order_acquire);
            const Cycle h = d > t ? d - t : 0;
            if (h < skip) skip = h;
        }
        if (skip > 0) {
            for (Component* c : sr.comps) {
                if (!c->awake_) continue;
                if (c->wake_at_ > t) continue;
                if (c->decoupled_gated_) c->decoupled_advance(skip);
            }
            sr.cur = t + skip;
            sr.local_now = sr.cur;
            sr.done.store(sr.cur, std::memory_order_release);
            budget -= skip;
            progress = true;
            continue;
        }

        // Full cycle.
        bool ticked_any = false;
        sr.local_now = t;
        sr.local_phase = Phase::kTick;
        for (Component* c : sr.comps) {
            if (!c->awake_) continue;
            if (c->wake_at_ > t) continue;
            flush_wake_accounting(c);
            c->tick();
            ticked_any = true;
        }
        sr.try_skip = !ticked_any;
        sr.local_phase = Phase::kCommit;
        for (Component* c : sr.comps) {
            // Commits run for every awake component — including ones woken
            // mid-tick whose first tick is next cycle: their staged input
            // (e.g. an RPU's rx_pending_) must be integrated this edge.
            if (!c->awake_) continue;
            c->commit();
        }
        if (sr.commits_always_clocked)
            for (Clocked* c : clocked_) c->commit();
        // Index loop: commits above may append to the queue.
        for (size_t i = 0; i < sr.commit_queue.size(); ++i) {
            Clocked* c = sr.commit_queue[i];
            c->commit_queued_ = false;
            c->commit();
        }
        sr.commit_queue.clear();
        sr.local_phase = Phase::kIdle;
        // The up-front end_wait gate guaranteed every producer finished T,
        // so the end hook can integrate all same-cycle channel pushes.
        if (sr.end_hook) sr.end_hook(t);
        sr.done.store(t + 1, std::memory_order_release);
        sr.cur = t + 1;
        --budget;
        progress = true;
        if (idle_skip_ && ((t + 1) & 3) == 0) shard_sleep_sweep(sr, t + 1);
    }
    t_shard_ = prev;
    return progress;
}

/// Thread-mode driver: one call per shard worker. Spins (with escalating
/// pauses) whenever the shard is blocked on a peer.
void
Kernel::run_shard_threaded(ShardRun& sr) {
    t_shard_ = &sr;
    int spins = 0;
    while (sr.cur < sr.end) {
        if (advance_shard(sr, 4096)) {
            spins = 0;
            continue;
        }
        if (++spins >= 64) {
            std::this_thread::yield();
            spins = 0;
        } else {
            cpu_pause();
        }
    }
    t_shard_ = nullptr;
}

void
Kernel::run_decoupled(Cycle cycles) {
    if (!prestep_done_) {
        prestep_done_ = true;
        if (prestep_hook_) prestep_hook_(*this);
    }
    if (cycles == 0) return;
    size_t covered = 0;
    for (const auto& sr : shard_runs_) covered += sr->comps.size();
    if (covered != components_.size())
        fatal("kernel: component registered after shard spec install");
    // Sleep state carries across the run boundary (clocks agree between
    // runs), but sleeping needs the wake edges resolved.
    if (idle_skip_ && !wake_map_built_) build_wake_map();
    const Cycle start = now_;
    const Cycle end = now_ + cycles;
    for (const auto& sr : shard_runs_) {
        sr->cur = start;
        sr->end = end;
        sr->done.store(start, std::memory_order_relaxed);
        sr->local_now = start;
        sr->local_phase = Phase::kIdle;
        sr->commit_queue.clear();
        sr->try_skip = true;
        if (sr->begin_hook) sr->begin_hook();
    }
    decoupled_live_.store(true, std::memory_order_seq_cst);
    const bool coop =
        spec_->exec == ShardSpec::Exec::kCoop ||
        (spec_->exec == ShardSpec::Exec::kAuto &&
         std::thread::hardware_concurrency() <= 1);
    if (coop) {
        // Cooperative interleaving on the calling thread: identical
        // results, no rendezvous spinning — and on a single hardware
        // thread the only regime in which decoupling can *win* host time.
        for (;;) {
            bool any = false;
            bool all_done = true;
            for (const auto& sr : shard_runs_) {
                if (sr->cur < sr->end) any = advance_shard(*sr, 8192) || any;
                if (sr->cur < sr->end) all_done = false;
            }
            if (all_done) break;
            if (!any) {
                decoupled_live_.store(false, std::memory_order_seq_cst);
                fatal("kernel: decoupled scheduler made no progress "
                      "(deadlocked shard spec)");
            }
        }
    } else {
        std::vector<std::thread> threads;
        threads.reserve(shard_runs_.size() - 1);
        for (size_t s = 1; s < shard_runs_.size(); ++s) {
            threads.emplace_back(
                [this, s] { run_shard_threaded(*shard_runs_[s]); });
        }
        run_shard_threaded(*shard_runs_[0]);
        for (std::thread& t : threads) t.join();
    }
    decoupled_live_.store(false, std::memory_order_seq_cst);
    now_ = end;
    phase_ = Phase::kIdle;
    sync_sleepers();
}


void
Kernel::run(Cycle cycles) {
    if (decoupled_effective()) {
        run_decoupled(cycles);
        return;
    }
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        if (prestep_done_ && idle_skip_effective() &&
            awake_count_.load(std::memory_order_relaxed) == 0) {
            // Whole-system quiescence: nothing can wake without a
            // host-side call, which cannot happen inside this loop.
            fast_forwarded_ += end - now_;
            now_ = end;
            break;
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
}

std::vector<std::string>
Kernel::tick_order() const {
    std::vector<std::string> names;
    names.reserve(components_.size());
    for (const Component* c : components_) names.push_back(c->name());
    return names;
}

void
Kernel::register_occupancy_probe(std::string net, size_t capacity,
                                 const void* owner, std::function<size_t()> fn) {
    for (OccupancyProbe& p : occupancy_probes_) {
        if (p.net == net) {
            p.capacity = capacity;
            p.owner = owner;
            p.fn = std::move(fn);
            return;
        }
    }
    occupancy_probes_.push_back(
        {std::move(net), capacity, owner, std::move(fn)});
}

void
Kernel::unregister_occupancy_probe(const std::string& net, const void* owner) {
    for (auto it = occupancy_probes_.begin(); it != occupancy_probes_.end();
         ++it) {
        if (it->net == net && it->owner == owner) {
            occupancy_probes_.erase(it);
            return;
        }
    }
}

void
Kernel::declare_net(NetRecord net) {
    wake_map_built_ = false;
    for (NetRecord& n : nets_) {
        if (n.name == net.name) {
            n = std::move(net);
            return;
        }
    }
    nets_.push_back(std::move(net));
}

void
Kernel::declare_port(PortRecord port) {
    for (const PortRecord& p : ports_) {
        if (p.component == port.component && p.net == port.net &&
            p.dir == port.dir && p.width_bits == port.width_bits &&
            p.depth == port.depth) {
            return;
        }
    }
    wake_map_built_ = false;
    ports_.push_back(std::move(port));
}

}  // namespace rosebud::sim
