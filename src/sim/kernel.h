/// \file
/// Synchronous, two-phase simulation kernel.
///
/// Rosebud's hardware is a fully synchronous 250 MHz design; the kernel
/// mirrors RTL semantics: every cycle, each registered Component runs its
/// combinational/compute phase (`tick`) against the *previous* cycle's
/// visible state, then every Clocked element that staged an update commits
/// it (`commit`). Inter-component communication happens exclusively through
/// registered FIFOs (sim::Fifo) and declared links, which makes results
/// independent of component iteration order.
///
/// That independence is machine-checked rather than assumed:
///  * the kernel tracks which component is ticking and whether the clock is
///    in the tick or commit phase, so the primitives can fault when two
///    components stage into the same element in one cycle (the dynamic
///    race detector, see sim/fifo.h);
///  * `shuffle_tick_order` permutes the component iteration order under a
///    seed, so a test can assert bit-identical runs across orders;
///  * every primitive and abstract inter-component link is recorded in a
///    netlist (nets + directed ports) that the static checker in
///    src/lint/ validates before cycle 0. A net is declared once, like a
///    wire elaborated once: `declare_net` returns its sim::NetId (its
///    index in `nets()`), a second declaration of the name panics, and
///    the declarer keeps the id for its wake edges and telemetry events.
///
/// Host-speed machinery (DESIGN.md §11): **quiescence skipping**. A
/// component may override `quiescent()` to report that, absent new input,
/// its tick()/commit() have no observable effect. The kernel keeps an
/// awake mask, one bit per component in tick order; the tick loop and the
/// sleep sweep visit only its set bits, so a cycle costs in proportion to
/// the components that are awake. Wake edges derived from the
/// elaboration netlist, one list per NetId (plus explicit `wake()` calls
/// on direct-call boundaries), re-activate a consumer the moment a
/// producer stages input for it. A sleeper whose idle ticks only advance
/// internal time (a paced traffic source between frames) also reports,
/// through `wake_due()`, the cycle at which it must tick again; the kernel
/// wakes it then and it replays the skipped ticks in `on_wake()`. When *every*
/// component is asleep the run loop fast-forwards the cycle counter to
/// the earliest due cycle in one step. Skipping is exact by construction
/// and is automatically disabled while a TelemetrySink is attached
/// (per-cycle event streams must see every cycle).

#ifndef ROSEBUD_SIM_KERNEL_H
#define ROSEBUD_SIM_KERNEL_H

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/telemetry.h"

namespace rosebud::sim {

/// Simulation time in clock cycles.
using Cycle = uint64_t;

/// Fabric clock of the reference implementation (paper Section 5).
inline constexpr double kClockHz = 250e6;

/// Nanoseconds per fabric clock cycle (4 ns at 250 MHz).
inline constexpr double kNsPerCycle = 1e9 / kClockHz;

/// Convert a cycle count to nanoseconds of simulated time.
inline constexpr double cycles_to_ns(Cycle c) { return double(c) * kNsPerCycle; }

/// Convert a cycle count to microseconds of simulated time.
inline constexpr double cycles_to_us(Cycle c) { return double(c) * kNsPerCycle / 1e3; }

/// "No due cycle": a sleeper that only an input can wake.
inline constexpr Cycle kNever = ~Cycle(0);

/// Anything with per-cycle staged state that must become visible at the
/// clock edge. Fifos and components implement this.
class Clocked {
 public:
    virtual ~Clocked() = default;

    /// Make updates staged during the current cycle visible to readers.
    /// Runs once at the clock edge of every cycle in which the element
    /// called Kernel::request_commit(), and on no other cycle.
    virtual void commit() = 0;

 private:
    friend class Kernel;
    /// Set while this element sits in the kernel's commit queue.
    bool commit_queued_ = false;
};

class Kernel;

// --- elaboration netlist -----------------------------------------------------

/// Behaviour flags on a net (see lint::check_netlist for how each check
/// consumes them).
enum NetFlag : unsigned {
    /// Written by the outside world (e.g. the MAC RX wire): a missing
    /// writer port is not a violation.
    kNetExternalSource = 1u << 0,
    /// Drained by the outside world (the wire, the host): a missing reader
    /// port is not a violation.
    kNetExternalSink = 1u << 1,
    /// Fan-in with declared arbitration is allowed (> 1 writer component).
    kNetMultiWriter = 1u << 2,
    /// Fan-out is allowed (> 1 reader component, e.g. broadcast delivery).
    kNetMultiReader = 1u << 3,
};

/// One registered communication element: a Fifo primitive or an
/// abstract credit-based link (a callback boundary that behaves like a
/// 1-deep registered channel). Primitives self-declare at construction;
/// abstract links are declared by the component or wiring code that owns
/// them.
struct NetRecord {
    enum Kind : uint8_t { kFifo, kLink };

    /// Credit-return discipline the writer observes. A registered credit
    /// return means a reader-side pop at cycle N first changes the writer's
    /// admission answer at N+1, so build_wake_map gives the writer a wake
    /// edge on the net: a producer sleeping on a full FIFO ticks again when
    /// space opens. A skid-buffer credit (the default) is combinational:
    /// either writer and reader are one component, or the writer never
    /// observes reader-side credit (self-paced drains such as the MAC TX
    /// line), so only the reader gets a wake edge.
    enum CreditKind : uint8_t { kCreditSkid, kCreditRegistered };

    std::string name;        ///< unique instance name, e.g. "rpu3.rx_fifo"
    Kind kind = kFifo;
    unsigned width_bits = 0; ///< datapath width (0 = unspecified)
    size_t depth = 0;        ///< entries (fifo capacity; 1 for a link)
    unsigned flags = 0;      ///< NetFlag bits
    /// Default: no writer wake edge.
    CreditKind credit = kCreditSkid;
};

/// A directed endpoint: `component` writes to / reads from `net`.
/// `width_bits`/`depth` are the producer/consumer-side expectations; when
/// nonzero they must match the net (credit counters sized against a
/// different FIFO depth are exactly the class of RTL bug this catches).
struct PortRecord {
    enum Dir : uint8_t { kWrite, kRead };

    std::string component;
    std::string net;
    Dir dir = kWrite;
    unsigned width_bits = 0;  ///< 0 = unspecified (inherits the net's)
    size_t depth = 0;         ///< 0 = unspecified
};

/// A hardware block with per-cycle behaviour.
///
/// Components register themselves with a Kernel at construction and are
/// ticked once per simulated cycle. All outputs must go through registered
/// primitives so that `tick` order does not matter.
class Component : public Clocked {
 public:
    Component(Kernel& kernel, std::string name);
    ~Component() override = default;

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /// Compute phase: observe committed state, stage updates.
    virtual void tick() = 0;

    /// Commit phase. Most components keep all state in registered
    /// primitives and need no custom commit. One that stages input of
    /// its own (a direct-call handoff from another component's tick)
    /// calls kernel().request_commit(this) where it stages.
    void commit() override {}

    /// Conservative idle report, polled by the kernel after each commit
    /// when idle skipping is enabled. Return true only if — given no new
    /// input — this component's tick() and commit() can have no observable
    /// effect on any cycle until an input arrives or its wake_due() cycle
    /// comes. Inputs of a sleeping component must be sim::Fifo pushes
    /// (which wake it through the netlist wake edges) or direct calls
    /// instrumented with wake(). The default keeps the component
    /// permanently active.
    virtual bool quiescent() const { return false; }

    /// Asked by the sleep sweep right after quiescent() returned true: the
    /// first cycle at which this component must tick again even without
    /// input. The ticks it sleeps through are replayed by on_wake(), so
    /// they must change nothing but internal, time-derived state. The
    /// default, kNever, means only an input wakes it.
    virtual Cycle wake_due() const { return kNever; }

    /// Re-activate this component. Idempotent. A wake issued during the
    /// tick phase takes effect on the *next* cycle — registered semantics:
    /// the sleeper could not have observed the producer's staged output
    /// this cycle anyway — which keeps serial and shuffled schedules
    /// bit-identical. Staged input handed over by a direct call (e.g.
    /// begin_rx) still lands this cycle: the call requests the commit.
    void wake();

    /// False while the component sleeps (its awake-mask bit is clear).
    bool awake() const;

    /// Hierarchical instance name, e.g. "dut.rpu3.interconnect".
    const std::string& name() const { return name_; }

    /// The kernel this component is clocked by.
    Kernel& kernel() const { return kernel_; }

 protected:
    /// Current simulation time, for convenience in subclasses.
    Cycle now() const;

    /// Called (from the owning tick loop or a host-boundary sync) with
    /// the number of consecutive tick() calls that were skipped while
    /// asleep, before the next tick runs. Override to keep purely
    /// time-derived internal state (e.g. a halted core's cycle CSR) exact.
    virtual void on_wake(Cycle skipped_cycles) { (void)skipped_cycles; }

    /// Flush this component's skipped-cycle accounting *now*. Host-facing
    /// mutators must call this before changing any state that a sleeper's
    /// catch-up replay could observe (e.g. an IRQ status register the
    /// firmware polls), so the replayed cycles see pre-mutation state.
    void flush_skipped();

 private:
    friend class Kernel;

    Kernel& kernel_;
    std::string name_;

    size_t slot_ = 0;                ///< index in the kernel's tick order
    Cycle wake_at_ = 0;              ///< first cycle allowed to tick again
    Cycle sleep_since_ = 0;          ///< first skipped cycle (if unaccounted_)
    bool unaccounted_ = false;       ///< skipped cycles not yet reported
    Cycle due_ = kNever;             ///< timed sleeper's wake_due(), if asleep
};

/// The clock driver: owns the component/clocked registries and advances
/// simulated time. Single-threaded; one kernel per simulated system.
class Kernel {
 public:
    /// Where the clock currently stands within Kernel::step().
    enum class Phase : uint8_t { kIdle, kTick, kCommit };

    Kernel() = default;
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    /// Register a component (called from Component's constructor).
    void add_component(Component* c) {
        c->slot_ = components_.size();
        components_.push_back(c);
        if (c->slot_ % 64 == 0) awake_mask_.push_back(0);
        mark_awake(*c);
        wake_map_built_ = false;  // ports may already name it
    }

    /// Queue a clocked element (a component or a registered element) for
    /// this cycle's clock edge; call it wherever the element stages an
    /// update. Idempotent per cycle: the per-element flag makes the queue
    /// duplicate-free, and commits are mutually independent, so queue
    /// order is unobservable.
    void request_commit(Clocked* c) {
        if (c->commit_queued_) return;
        c->commit_queued_ = true;
        commit_queue_.push_back(c);
    }

    /// Advance the simulation by exactly one clock cycle: tick every awake
    /// component, then commit the queued elements in request order (one
    /// commit path for components and primitives alike).
    void step();

    /// Advance the simulation by `cycles` clock cycles. When the whole
    /// system is quiescent (idle skipping on, every component asleep) the
    /// clock jumps to the earlier of the run's end and the earliest timed
    /// sleeper's due cycle: nothing else can wake without a host-side
    /// call, which cannot happen inside this loop.
    void run(Cycle cycles);

    /// Run until `pred()` returns true or `max_cycles` elapse.
    /// Returns true if the predicate fired. While the whole system is
    /// quiescent, cycles before the earliest due cycle advance without
    /// tick/commit work but `pred` is still evaluated each cycle (it may
    /// be time-dependent).
    template <typename Pred>
    bool run_until(Pred&& pred, Cycle max_cycles) {
        bool hit = false;
        for (Cycle i = 0; i < max_cycles; ++i) {
            if (pred()) {
                hit = true;
                break;
            }
            if (all_asleep() && now_ < next_due_) {
                ++now_;  // quiescent: the cycle is empty by construction
                ++fast_forwarded_;
            } else {
                step();
            }
        }
        if (!hit) hit = pred();
        sync_sleepers();
        return hit;
    }

    /// Current simulation time in cycles since reset.
    Cycle now() const { return now_; }

    /// Current simulation time in nanoseconds.
    double now_ns() const { return cycles_to_ns(now()); }

    /// Number of registered components.
    size_t component_count() const { return components_.size(); }

    // --- phase/actor tracking (race detector substrate) ---------------------

    /// Where the clock stands right now.
    Phase phase() const { return phase_; }

    /// True while some component's tick() is on the stack.
    bool in_tick() const { return phase() == Phase::kTick; }

    /// The component whose tick() is currently running (null outside the
    /// tick phase, i.e. for commits and host/test code).
    const Component* active_component() const { return active_; }

    // --- telemetry ------------------------------------------------------------

    /// Attach/detach the observability sink (obs::Telemetry). Null (the
    /// default) disables all event emission; the caller owns the sink and
    /// must detach (or outlive the kernel) before it dies. Events flow from
    /// the registered primitives and instrumented components; end_cycle
    /// fires once per step after all commits, when the sink reads
    /// committed occupancy from the probes below. Attaching a sink disables
    /// idle skipping (the accessors below report the effective state) so
    /// per-cycle accounting stays exact and event order deterministic.
    void set_telemetry(TelemetrySink* sink) {
        if (sink) wake_all();
        telemetry_ = sink;
    }
    TelemetrySink* telemetry() const { return telemetry_; }

    // --- health probe ---------------------------------------------------------

    /// Attach/detach the always-on health heartbeat (obs::HealthMonitor).
    /// Null (the default) costs one pointer compare per stepped cycle.
    /// Deliberately does NOT wake anything and does NOT disable idle
    /// skipping — the probe contract (sim/telemetry.h) tolerates
    /// fast-forward gaps, which is what keeps the health layer
    /// within its production overhead budget. The caller owns the probe
    /// and must detach (or outlive the kernel) before it dies.
    void set_health_probe(HealthProbe* probe) { health_probe_ = probe; }
    HealthProbe* health_probe() const { return health_probe_; }

    // --- occupancy probes -----------------------------------------------------

    /// A registered on-demand reader of one net's committed occupancy.
    /// Primitives (sim::Fifo) and components owning abstract buffered links
    /// (fabric VOQs, RPU packet slots) register a getter at construction.
    /// This registry is the one occupancy channel: the telemetry's
    /// per-cycle waveforms, the watchdog's deepest-backlog census and the
    /// metrics registry's gauges all read it at host-phase points. Getters
    /// read committed state only and are never called during tick/commit.
    struct OccupancyProbe {
        std::string net;        ///< netlist name, e.g. "rpu3.rx_fifo"
        NetId id = kNoNet;      ///< the net's declaration id; kNoNet if none
        size_t capacity = 0;    ///< same unit as the getter (entries)
        const void* owner = nullptr;  ///< registrant, for matched removal
        std::function<size_t()> fn;   ///< committed occupancy right now
    };

    /// Append an occupancy probe. Each registrant names its own net (or,
    /// for the RPU slot census, a name no net carries, with kNoNet), so
    /// names are unique without a check.
    void register_occupancy_probe(std::string net, NetId id, size_t capacity,
                                  const void* owner, std::function<size_t()> fn) {
        occupancy_probes_.push_back({std::move(net), id, capacity, owner, std::move(fn)});
    }

    /// Remove the probe `owner` registered for net `id`.
    void unregister_occupancy_probe(NetId id, const void* owner);

    /// All live occupancy probes, in registration order (deterministic).
    const std::vector<OccupancyProbe>& occupancy_probes() const {
        return occupancy_probes_;
    }

    // --- quiescence skipping --------------------------------------------------

    /// Master switch for the active set / fast-forward machinery (on by
    /// default; exact by construction). Turning it off wakes everything.
    void set_idle_skip(bool on);
    bool idle_skip() const { return idle_skip_; }

    /// True when skipping is actually applied this step.
    bool idle_skip_effective() const { return idle_skip_ && telemetry_ == nullptr; }

    /// Components currently awake (set bits of the awake mask).
    size_t awake_count() const {
        size_t n = 0;
        for (uint64_t w : awake_mask_) n += size_t(std::popcount(w));
        return n;
    }

    /// Wake every component (and report skipped cycles to each sleeper).
    void wake_all();

    /// Report pending skipped cycles to every sleeper without waking it,
    /// so host code can observe exact time-derived state (core cycle
    /// counters) between runs. Called automatically at run()/run_until()
    /// boundaries; exact for timed sleepers too, because no run ends past
    /// a sleeper's due cycle.
    void sync_sleepers();

    /// Cumulative cycles whose tick/commit work was skipped by whole-
    /// system fast-forward (diagnostics for bench_simspeed).
    Cycle fast_forwarded_cycles() const { return fast_forwarded_; }

    // --- tick-order shuffling -------------------------------------------------

    /// Deterministically permute the component tick order under `seed`.
    /// Because all inter-component state flows through registered
    /// primitives, any permutation must produce a bit-identical run; the
    /// determinism tests assert exactly that. Components registered after
    /// the shuffle are appended in registration order. Commit order is
    /// left untouched (commits are mutually independent by construction).
    void shuffle_tick_order(uint64_t seed);

    /// Current tick order, for diagnostics.
    std::vector<std::string> tick_order() const;

    // --- elaboration netlist ---------------------------------------------------

    /// Record a net and return its id, its index in nets(). A net is
    /// declared once: declaring a name twice is a simulator bug and
    /// panics, naming the net.
    NetId declare_net(NetRecord net);

    /// Record a directed port. Its net may be declared later (or never:
    /// the lint's unknown-net check reports that).
    void declare_port(PortRecord port) {
        wake_map_built_ = false;
        ports_.push_back(std::move(port));
    }

    /// The id of the net declared as `name`, or kNoNet.
    NetId net_id(const std::string& name) const;

    const std::vector<NetRecord>& nets() const { return nets_; }
    const std::vector<PortRecord>& ports() const { return ports_; }

    // --- wake edges (NetId -> components) ----------------------------------------

    /// True while the wake lists reflect the current netlist: a step
    /// builds them, and any netlist change or new component marks them
    /// stale.
    bool wake_map_built() const { return wake_map_built_; }

    /// Components woken by activity on `net` per the elaboration netlist:
    /// its readers, plus its writers when the net returns registered
    /// credit. Stale lists are rebuilt first, so a host-phase push right
    /// after a mid-run declaration (a source added, an accelerator socket
    /// elaborated) still wakes a sleeping reader.
    const std::vector<Component*>& wake_list(NetId net) {
        if (!wake_map_built_) build_wake_map();
        return wake_lists_[net];
    }

    /// Hook run once, immediately before the first step(). System installs
    /// the static lint pass here so that everything constructed up front —
    /// including traffic sources added after the System — is elaborated
    /// and checked before cycle 0.
    void set_prestep_hook(std::function<void(Kernel&)> fn) {
        prestep_hook_ = std::move(fn);
    }

 private:
    friend class Component;

    /// True when the whole system may skip the current cycle. It runs every
    /// cycle, so it tests mask words for zero instead of calling
    /// awake_count(): without -mpopcnt, std::popcount is a library call.
    bool all_asleep() const {
        if (!prestep_done_ || !idle_skip_effective()) return false;
        for (uint64_t w : awake_mask_)
            if (w != 0) return false;
        return true;
    }

    /// The awake-mask bit of tick-order slot `slot` (in word slot / 64).
    static uint64_t slot_bit(size_t slot) { return uint64_t(1) << (slot % 64); }
    void mark_awake(const Component& c) { awake_mask_[c.slot_ / 64] |= slot_bit(c.slot_); }

    /// Call fn(c) for each awake component, in tick order. Each mask word
    /// is read once, before its components run, so a bit that fn sets in
    /// it is not visited.
    template <typename Fn>
    void for_each_awake(Fn&& fn) {
        for (size_t w = 0; w < awake_mask_.size(); ++w) {
            for (uint64_t bits = awake_mask_[w]; bits != 0; bits &= bits - 1)
                fn(components_[w * 64 + size_t(std::countr_zero(bits))]);
        }
    }

    void note_wake(Component& c);
    void flush_wake_accounting(Component* c);
    void sleep_sweep();
    void wake_timed();
    void drop_timed(Component& c);
    void build_wake_map();

    std::vector<Component*> components_;  ///< tick order
    /// Bit i set: components_[i] is awake. The one record of who is awake.
    std::vector<uint64_t> awake_mask_;
    std::vector<Clocked*> commit_queue_;
    Cycle now_ = 0;

    Phase phase_ = Phase::kIdle;
    const Component* active_ = nullptr;
    TelemetrySink* telemetry_ = nullptr;
    HealthProbe* health_probe_ = nullptr;
    std::vector<OccupancyProbe> occupancy_probes_;

    bool idle_skip_ = true;
    Cycle fast_forwarded_ = 0;
    /// Sleepers with a due cycle, and the earliest of their due cycles.
    std::vector<Component*> timed_;
    Cycle next_due_ = kNever;

    bool wake_map_built_ = false;
    std::vector<std::vector<Component*>> wake_lists_;  ///< [NetId]

    std::vector<NetRecord> nets_;                  ///< [NetId]
    std::unordered_map<std::string, NetId> net_ids_;  ///< name -> NetId
    std::vector<PortRecord> ports_;
    std::function<void(Kernel&)> prestep_hook_;
    bool prestep_done_ = false;
};

inline Cycle Component::now() const { return kernel_.now(); }

inline bool
Component::awake() const {
    return (kernel_.awake_mask_[slot_ / 64] & Kernel::slot_bit(slot_)) != 0;
}

inline void
Component::wake() {
    if (awake()) return;
    kernel_.note_wake(*this);
}

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_KERNEL_H
