/// Unit tests for the simulation kernel primitives: two-phase clocking,
/// registered FIFOs, stats, and the deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "core/system.h"
#include "net/tracegen.h"
#include "sim/fifo.h"
#include "sim/kernel.h"
#include "sim/random.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud::sim {
namespace {

class CountingComponent : public Component {
 public:
    CountingComponent(Kernel& k, std::string name) : Component(k, std::move(name)) {}
    void tick() override { ++ticks; }
    int ticks = 0;
};

TEST(Kernel, TicksEveryComponentOncePerCycle) {
    Kernel k;
    CountingComponent a(k, "a");
    CountingComponent b(k, "b");
    k.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, NowNsMatchesClock) {
    Kernel k;
    k.run(250);
    EXPECT_DOUBLE_EQ(k.now_ns(), 1000.0);  // 250 cycles at 4 ns
}

TEST(Kernel, RunUntilStopsOnPredicate) {
    Kernel k;
    CountingComponent a(k, "a");
    bool fired = k.run_until([&] { return a.ticks >= 5; }, 100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(a.ticks, 5);
}

TEST(Kernel, RunUntilTimesOut) {
    Kernel k;
    bool fired = k.run_until([] { return false; }, 7);
    EXPECT_FALSE(fired);
    EXPECT_EQ(k.now(), 7u);
}

TEST(Fifo, PushNotVisibleUntilCommit) {
    Kernel k;
    Fifo<int> f(k, "f", 4);
    ASSERT_TRUE(f.push(1));
    EXPECT_TRUE(f.empty());  // same cycle: not yet visible
    k.step();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, CapacityCountsStagedPushes) {
    Kernel k;
    Fifo<int> f(k, "f", 2);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_FALSE(f.can_push());
    EXPECT_FALSE(f.push(3));
    k.step();
    EXPECT_EQ(f.size(), 2u);
    EXPECT_FALSE(f.can_push());
}

TEST(Fifo, PopFreesSpaceWithinSameCycle) {
    Kernel k;
    Fifo<int> f(k, "f", 1);
    ASSERT_TRUE(f.push(1));
    k.step();
    EXPECT_FALSE(f.can_push());
    EXPECT_EQ(f.pop(), 1);
    // Skid-buffer behaviour: the pop frees the slot for a same-cycle push.
    EXPECT_TRUE(f.can_push());
    EXPECT_TRUE(f.push(2));
    k.step();
    EXPECT_EQ(f.front(), 2);
}

TEST(Fifo, FifoOrderPreserved) {
    Kernel k;
    Fifo<int> f(k, "f", 8);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(f.push(i));
    k.step();
    for (int i = 0; i < 5; ++i) EXPECT_EQ(f.pop(), i);
}

TEST(Fifo, ClearDropsEverything) {
    Kernel k;
    Fifo<int> f(k, "f", 8);
    ASSERT_TRUE(f.push(1));
    k.step();
    ASSERT_TRUE(f.push(2));
    f.clear();
    k.step();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.free_slots(), 8u);
}

TEST(Fifo, FreeSlotsAccounting) {
    Kernel k;
    Fifo<int> f(k, "f", 3);
    EXPECT_EQ(f.free_slots(), 3u);
    ASSERT_TRUE(f.push(1));
    EXPECT_EQ(f.free_slots(), 2u);
    k.step();
    EXPECT_EQ(f.free_slots(), 2u);
}

TEST(Stats, CountersFindOrCreate) {
    Stats s;
    s.counter("a.b").add(3);
    s.counter("a.b").add(2);
    EXPECT_EQ(s.get("a.b"), 5u);
    EXPECT_EQ(s.get("missing"), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
    Rng r(9);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval) {
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceExtremes) {
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

// --- quiescence skipping ------------------------------------------------------

/// A consumer that is idle whenever its input FIFO is empty. Declares a
/// read port on the net so the kernel's wake-edge map routes producer
/// pushes back to it while it sleeps.
class SleepyConsumer : public Component {
 public:
    SleepyConsumer(Kernel& k, Fifo<int>& f) : Component(k, "consumer"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kRead, 32, 1});
    }
    void tick() override {
        ++ticks;
        if (!f_.empty()) sum += f_.pop();
    }
    bool quiescent() const override { return f_.empty(); }
    void on_wake(Cycle skipped) override { skipped_total += skipped; }
    using Component::flush_skipped;

    Fifo<int>& f_;
    uint64_t ticks = 0;
    uint64_t skipped_total = 0;
    int sum = 0;
};

TEST(Quiescence, SleeperSkipsTicksButMissesNothing) {
    Kernel k;
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);

    k.run(1000);
    // The consumer slept through almost the whole window.
    EXPECT_LT(c.ticks, 1000u);

    // Host-phase push while asleep: the wake edge must reactivate it.
    ASSERT_TRUE(f.push(42));
    k.run(10);
    EXPECT_EQ(c.sum, 42);
    EXPECT_EQ(k.now(), 1010u);
}

TEST(Quiescence, HostPushAfterNetlistChangeWakesSleeper) {
    // A port declared mid-run marks the wake lists stale. A host-phase
    // push before the next step must still wake the sleeping reader: with
    // every component asleep the run fast-forwards, so a missed wake
    // would leave the value staged for good.
    Kernel k;
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);
    k.run(1000);
    ASSERT_LT(c.ticks, 1000u);
    k.declare_port({"host", "elsewhere", PortRecord::kWrite, 0, 0});
    ASSERT_TRUE(f.push(42));
    k.run(10);
    EXPECT_EQ(c.sum, 42);
}

TEST(Quiescence, IdleSkipOffTicksEveryCycle) {
    Kernel k;
    k.set_idle_skip(false);
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);
    k.run(500);
    EXPECT_EQ(c.ticks, 500u);
    EXPECT_EQ(c.skipped_total, 0u);
}

TEST(Quiescence, TickPlusSkippedAccountingIsExact) {
    Kernel k;
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);
    // Several sleep/wake rounds. A host-phase push commits at the end of
    // the next stepped cycle, so the value is poppable two cycles later.
    for (int round = 0; round < 5; ++round) {
        k.run(200);
        ASSERT_TRUE(f.push(round));
        k.run(5);
    }
    ASSERT_TRUE(f.push(99));
    k.run(5);
    // Host-boundary sync: settle any window opened by a sleep in the last
    // few cycles, then every cycle must be a tick or an accounted skip.
    c.flush_skipped();
    EXPECT_EQ(c.ticks + c.skipped_total, k.now());
    EXPECT_EQ(c.sum, 0 + 1 + 2 + 3 + 4 + 99);
}

// --- timed sleep --------------------------------------------------------------

/// Quiescent until cycle `due`: its ticks before then change nothing, so
/// it sleeps with a due cycle and replays the skipped ticks on wake. An
/// input FIFO lets a test wake it early.
class TimedSleeper : public Component {
 public:
    TimedSleeper(Kernel& k, Fifo<int>& in, Cycle due)
        : Component(k, "timed"), in_(in), due_(due) {
        k.declare_port({name(), in.name(), PortRecord::kRead, 32, 1});
    }
    void tick() override {
        ticked.push_back(now());
        if (!in_.empty()) in_.pop();
    }
    bool quiescent() const override { return now() < due_ && in_.empty(); }
    Cycle wake_due() const override { return due_; }
    void on_wake(Cycle skipped) override { replays.push_back(skipped); }

    Cycle replayed() const {
        Cycle n = 0;
        for (Cycle r : replays) n += r;
        return n;
    }

    Fifo<int>& in_;
    Cycle due_;
    std::vector<Cycle> ticked;   ///< cycles tick() ran on
    std::vector<Cycle> replays;  ///< on_wake() arguments, in order
};

// The first sleep sweep runs at cycle 4, so the sleeper ticks 0..3 live,
// skips 4..T-1 and must tick again at exactly T.
constexpr Cycle kDue = 1000;

TEST(TimedSleep, RunWakesAtTheDueCycleAndFastForwardsTheGap) {
    Kernel k;
    Fifo<int> in(k, "in", 4);
    TimedSleeper c(k, in, kDue);
    k.run(kDue + 10);
    ASSERT_GE(c.ticked.size(), 5u);
    EXPECT_EQ(c.ticked[3], 3u);
    EXPECT_EQ(c.ticked[4], kDue);
    EXPECT_EQ(c.replayed(), kDue - 4);
    EXPECT_EQ(c.ticked.size() + c.replayed(), k.now());
    // The sleeper was the only component: the whole gap was one jump.
    EXPECT_EQ(k.fast_forwarded_cycles(), kDue - 4);
}

TEST(TimedSleep, RunUntilHonoursTheDueCycle) {
    Kernel k;
    Fifo<int> in(k, "in", 4);
    TimedSleeper c(k, in, kDue);
    EXPECT_TRUE(k.run_until([&] { return c.ticked.size() == 5; }, 10 * kDue));
    EXPECT_EQ(c.ticked[4], kDue);
    EXPECT_EQ(k.now(), kDue + 1);
    EXPECT_EQ(c.replayed(), kDue - 4);
    EXPECT_EQ(k.fast_forwarded_cycles(), kDue - 4);
}

TEST(TimedSleep, PlainStepWakesAtTheDueCycle) {
    Kernel k;
    Fifo<int> in(k, "in", 4);
    TimedSleeper c(k, in, kDue);
    for (Cycle i = 0; i < kDue + 10; ++i) k.step();
    ASSERT_GE(c.ticked.size(), 5u);
    EXPECT_EQ(c.ticked[4], kDue);
    ASSERT_EQ(c.replays.size(), 1u);
    EXPECT_EQ(c.replays[0], kDue - 4);
    EXPECT_EQ(k.fast_forwarded_cycles(), 0u);
}

TEST(TimedSleep, EarlyInputWakeReplaysOnlyTheSkippedPrefix) {
    Kernel k;
    Fifo<int> in(k, "in", 4);
    TimedSleeper c(k, in, kDue);
    constexpr Cycle kWake = 300;
    k.run(kWake);
    ASSERT_FALSE(c.awake());
    ASSERT_TRUE(in.push(1));  // host-phase input: the wake edge fires now
    k.run(1);
    ASSERT_EQ(c.ticked.size(), 5u);
    EXPECT_EQ(c.ticked[4], kWake);
    EXPECT_EQ(c.replayed(), kWake - 4);
    // It sleeps again and still wakes at exactly its due cycle.
    k.run(kDue + 10 - k.now());
    const auto first_at_due =
        std::find(c.ticked.begin(), c.ticked.end(), kDue);
    ASSERT_NE(first_at_due, c.ticked.end());
    EXPECT_LT(*(first_at_due - 1), kDue - 1);  // it slept right up to kDue
    EXPECT_EQ(c.ticked.size() + c.replayed(), k.now());
}

TEST(TimedSleep, RunBoundaryBeforeDueLeavesItAsleepAndAccounted) {
    Kernel k;
    Fifo<int> in(k, "in", 4);
    TimedSleeper c(k, in, kDue);
    constexpr Cycle kStop = 600;
    k.run(kStop);
    EXPECT_FALSE(c.awake());
    EXPECT_EQ(c.ticked.size(), 4u);
    EXPECT_EQ(c.replayed(), kStop - 4);  // synced at the run boundary
    k.run(kDue + 10 - kStop);
    ASSERT_GE(c.ticked.size(), 5u);
    EXPECT_EQ(c.ticked[4], kDue);
    EXPECT_EQ(c.replayed(), kDue - 4);
    EXPECT_EQ(k.fast_forwarded_cycles(), kDue - 4);
}

// --- awake mask ---------------------------------------------------------------
//
// The tick loop visits only the awake mask's set bits. 130 components span
// three mask words; input wakes (host-phase and mid-tick), timed sleepers
// and a mid-run shuffle must leave every cycle's ticks exactly the awake
// components, in tick order.

/// Logs each tick, then draws how long it stays busy, whether its next
/// sleep is timed, and whether it wakes its peer mid-tick.
class MaskToy : public Component {
 public:
    MaskToy(Kernel& k, size_t id, std::vector<std::string>& log)
        : Component(k, "toy" + std::to_string(id)), rng_(id + 1), log_(log) {}
    void tick() override {
        log_.push_back(name());
        const uint64_t r = rng_.next();
        busy_until_ = now() + r % 6;
        due_ = (r >> 8) % 3 == 0 ? now() + 5 + (r >> 16) % 40 : kNever;
        if ((r >> 32) % 5 == 0) peer->wake();
    }
    bool quiescent() const override { return now() > busy_until_; }
    Cycle wake_due() const override { return due_; }

    MaskToy* peer = nullptr;

 private:
    Rng rng_;
    std::vector<std::string>& log_;
    Cycle busy_until_ = 0;
    Cycle due_ = kNever;
};

TEST(AwakeMask, EachCycleTicksTheAwakeSubsetOfTickOrder) {
    constexpr size_t kToys = 130;
    Kernel k;
    std::vector<std::string> log;
    std::vector<std::unique_ptr<MaskToy>> toys;
    std::map<std::string, const MaskToy*> by_name;
    for (size_t i = 0; i < kToys; ++i) {
        toys.push_back(std::make_unique<MaskToy>(k, i, log));
        by_name[toys.back()->name()] = toys.back().get();
    }
    for (size_t i = 0; i < kToys; ++i) toys[i]->peer = toys[(i * 37 + 11) % kToys].get();

    Rng host(7);
    size_t partial_cycles = 0, timed_wakes = 0;
    for (Cycle t = 0; t < 3000; ++t) {
        if (t == 1500) k.shuffle_tick_order(0xabcdef);
        if (t % 7 == 0) toys[host.below(kToys)]->wake();  // host-phase input
        std::vector<std::string> expect;
        size_t awake = 0;
        for (const std::string& name : k.tick_order()) {
            const MaskToy* toy = by_name.at(name);
            awake += toy->awake();
            if (toy->awake()) {
                expect.push_back(name);
            } else if (toy->wake_due() <= k.now()) {
                expect.push_back(name);  // a timed sleeper due this cycle
                ++timed_wakes;
            }
        }
        ASSERT_EQ(k.awake_count(), awake) << "cycle " << t;
        partial_cycles += expect.size() < kToys;
        log.clear();
        k.step();
        ASSERT_EQ(log, expect) << "cycle " << t;
    }
    // The run really put components to sleep and woke timed sleepers.
    EXPECT_GT(partial_cycles, 2500u);
    EXPECT_GT(timed_wakes, 500u);
}

// --- registered-credit wake edges ---------------------------------------------
//
// A kCreditRegistered FIFO returns credit with one cycle of latency, so a
// pop is an observable event for the *writer*: the wake map must include
// the writer as a wake target, or a producer sleeping on a full FIFO
// never learns that space opened.

TEST(Quiescence, WakeMapIncludesRegisteredCreditWriters) {
    Kernel k;
    Fifo<int> reg(k, "reg_q", 2, 32, 0, CreditPolicy::kRegistered);
    Fifo<int> skid(k, "skid_q", 2, 32, 0, CreditPolicy::kSkidBuffer);
    CountingComponent w(k, "w");
    CountingComponent r(k, "r");
    k.declare_port({"w", "reg_q", PortRecord::kWrite, 32, 0});
    k.declare_port({"r", "reg_q", PortRecord::kRead, 32, 0});
    k.declare_port({"w", "skid_q", PortRecord::kWrite, 32, 0});
    k.declare_port({"r", "skid_q", PortRecord::kRead, 32, 0});
    k.step();  // idle skip is on by default: builds the wake map lazily
    ASSERT_TRUE(k.wake_map_built());

    auto contains = [&](NetId net, const char* name) {
        for (Component* c : k.wake_list(net)) {
            if (c->name() == name) return true;
        }
        return false;
    };
    // Registered credit: reader AND writer are wake targets.
    EXPECT_TRUE(contains(k.net_id("reg_q"), "r"));
    EXPECT_TRUE(contains(k.net_id("reg_q"), "w"));
    // Skid credit: only the reader (cross-component credit observation is
    // illegal there anyway, so there is no sleeping producer to wake).
    EXPECT_TRUE(contains(k.net_id("skid_q"), "r"));
    EXPECT_FALSE(contains(k.net_id("skid_q"), "w"));
}

/// Producer that fills a registered-credit FIFO and sleeps while it is
/// full; only the consumer's pops can wake it again.
class BlockedProducer : public Component {
 public:
    BlockedProducer(Kernel& k, Fifo<int>& f) : Component(k, "producer"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kWrite, 32, 1});
    }
    void tick() override {
        ++ticks;
        if (f_.can_push()) (void)!f_.push(seq++);
    }
    bool quiescent() const override { return f_.free_slots() == 0; }

    Fifo<int>& f_;
    uint64_t ticks = 0;
    int seq = 0;
};

/// Consumer that drains one element every seventh cycle and never sleeps.
class SlowDrain : public Component {
 public:
    SlowDrain(Kernel& k, Fifo<int>& f) : Component(k, "drain"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kRead, 32, 1});
    }
    void tick() override {
        if (kernel().now() % 7 == 0 && !f_.empty()) {
            sum += f_.pop();
            ++count;
        }
    }

    Fifo<int>& f_;
    long sum = 0;
    int count = 0;
};

TEST(Quiescence, RegisteredCreditPopWakesBlockedProducer) {
    auto run = [](bool idle_skip) {
        Kernel k;
        k.set_idle_skip(idle_skip);
        Fifo<int> f(k, "q", 4, 32, 0, CreditPolicy::kRegistered);
        BlockedProducer p(k, f);
        SlowDrain d(k, f);
        k.run(700);
        return std::tuple<int, long, int, uint64_t>(p.seq, d.sum, d.count, p.ticks);
    };
    auto [seq_skip, sum_skip, count_skip, ticks_skip] = run(true);
    auto [seq_ref, sum_ref, count_ref, ticks_ref] = run(false);

    // The producer really slept under idle skip...
    EXPECT_LT(ticks_skip, ticks_ref);
    // ...yet produced and the drain consumed exactly the same stream: the
    // pop's credit wake edge re-armed the producer every time.
    EXPECT_EQ(seq_skip, seq_ref);
    EXPECT_EQ(sum_skip, sum_ref);
    EXPECT_EQ(count_skip, count_ref);
    EXPECT_GT(count_skip, 50);
}

// --- execution-schedule equivalence -------------------------------------------
//
// The legality argument for every host-speed mode (DESIGN.md §11) is that
// it cannot change simulated results. Enforce it end-to-end: a real
// 4-RPU forwarding system run under each kernel mode must produce the
// same architectural-state fingerprint, bit for bit.

enum class Sched {
    kSerial,      ///< default: idle skip + race check, registration order
    kNoIdleSkip,  ///< every component ticked every cycle
    kReference,   ///< no idle skip and no predecoded dispatch
    kShuffled,    ///< permuted tick order
};

/// One fingerprinted workload. The default is a capped 200-packet
/// forwarder run; kTimedShapes below cover the shapes whose sources sleep
/// between frames while the idle DUT fast-forwards.
struct Shape {
    const char* name = "capped 4-RPU forwarder";
    rosebud::Pipeline pipeline = rosebud::Pipeline::kForwarder;
    unsigned rpus = 4;
    unsigned ports = 1;
    uint32_t size = 0;  ///< 0 = the trace generator's default size
    double load = 0.6;
    double max_pps = 0;
    uint64_t max_packets = 200;
    Cycle cycles = 25'000;
    bool fast_forwards = false;  ///< whole-system fast-forward must occur
    bool mac_drops = false;      ///< the MAC RX FIFOs must overflow
    /// Ceiling on the mean share of awake RPUs with idle skip on, sampled
    /// every kAwakeSampleEvery cycles in a separate run (1.0 = none).
    double max_rpu_awake = 1.0;
    /// Run Section 6.3's loopback benchmark instead of the pipeline's
    /// firmware: the first half of the RPUs relays every packet to its
    /// partner over the loopback channel.
    bool two_step = false;
};

struct SchedRun {
    uint64_t fingerprint = 0;
    Cycle fast_forwarded = 0;
    uint64_t mac_drops = 0;  ///< frames dropped at full MAC RX FIFOs
    double rpu_awake = 0;    ///< mean share of awake RPUs at the samples
};

constexpr Cycle kAwakeSampleEvery = 50;

/// `sample_awake` splits the run into kAwakeSampleEvery-cycle run_cycles()
/// calls and fills SchedRun::rpu_awake; otherwise it is one call.
SchedRun
run_sched(Sched s, const Shape& shape = {}, bool sample_awake = false) {
    rosebud::PipelineSpec spec;
    spec.pipeline = shape.pipeline;
    spec.system.rpu_count = shape.rpus;
    spec.system.hw_reassembler = shape.pipeline == rosebud::Pipeline::kPigasusHwReorder;
    if (s == Sched::kNoIdleSkip || s == Sched::kReference)
        spec.system.tuning.idle_skip = false;
    if (s == Sched::kReference) spec.system.tuning.predecode = false;
    rosebud::PipelineFixture fx = rosebud::build_pipeline(spec);
    rosebud::System& sys = fx.system();
    // A tuning field the constructor silently ignored would make the
    // equivalence checks below vacuous.
    EXPECT_EQ(sys.kernel().idle_skip(), spec.system.tuning.idle_skip);
    for (unsigned i = 0; i < sys.rpu_count(); ++i)
        EXPECT_EQ(sys.rpu(i).core().predecode(), spec.system.tuning.predecode)
            << "rpu" << i;
    if (s == Sched::kShuffled) sys.kernel().shuffle_tick_order(0x5eedf00d);
    if (shape.two_step) {
        const rosebud::fwlib::Program fw = rosebud::fwlib::two_step_forwarder(shape.rpus);
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.host().set_recv_mask((1u << (shape.rpus / 2)) - 1);
    }

    for (unsigned port = 0; port < shape.ports; ++port) {
        rosebud::net::TrafficSpec tspec;
        tspec.seed = 5 + port;
        if (shape.size) tspec.packet_size = shape.size;
        auto gen = std::make_shared<rosebud::net::TraceGenerator>(
            tspec, fx.rules.get(), fx.blacklist.get());
        rosebud::dist::TrafficSource::Config src;
        src.port = port;
        src.load = shape.load;
        src.max_pps = shape.max_pps;
        src.max_packets = shape.max_packets;
        sys.add_source(src, [gen] { return gen->next(); });
    }

    double awake = 0;
    if (!sample_awake) {
        sys.run_cycles(shape.cycles);
    } else {
        unsigned samples = 0;
        for (Cycle c = 0; c < shape.cycles; c += kAwakeSampleEvery, ++samples) {
            sys.run_cycles(std::min(kAwakeSampleEvery, shape.cycles - c));
            for (unsigned i = 0; i < sys.rpu_count(); ++i) awake += sys.rpu(i).awake();
        }
        awake /= double(samples) * sys.rpu_count();
    }
    return {sys.state_fingerprint(), sys.kernel().fast_forwarded_cycles(),
            sys.stats().get("port0.rx_fifo_drops") + sys.stats().get("port1.rx_fifo_drops"),
            awake};
}

TEST(ScheduleEquivalence, SerialAndShuffledAreBitIdentical) {
    const uint64_t base = run_sched(Sched::kSerial).fingerprint;
    EXPECT_EQ(run_sched(Sched::kShuffled).fingerprint, base);
}

TEST(ScheduleEquivalence, IdleSkipIsBitIdentical) {
    const uint64_t base = run_sched(Sched::kSerial).fingerprint;
    EXPECT_EQ(run_sched(Sched::kNoIdleSkip).fingerprint, base);
}

TEST(ScheduleEquivalence, ReferenceTuningIsBitIdentical) {
    const uint64_t base = run_sched(Sched::kSerial).fingerprint;
    EXPECT_EQ(run_sched(Sched::kReference).fingerprint, base);
}

// Uncapped sources time-sleep between frames: every one of these must
// reach the same fingerprint with idle skip on, off and shuffled.
const Shape kTimedShapes[] = {
    {.name = "lowload: 16 RPUs, 2 ports, 256 B @ 0.005",
     .rpus = 16, .ports = 2, .size = 256, .load = 0.005, .max_packets = 0,
     .cycles = 60'000, .fast_forwards = true},
    {.name = "Fig 7c low load: 16 RPUs, 2 ports, 1500 B @ 0.05",
     .rpus = 16, .ports = 2, .size = 1500, .load = 0.05, .max_packets = 0,
     .cycles = 40'000, .fast_forwards = true},
    {.name = "Fig 7c low load: 16 RPUs, 2 ports, 9000 B @ 0.05",
     .rpus = 16, .ports = 2, .size = 9000, .load = 0.05, .max_packets = 0,
     .cycles = 60'000, .fast_forwards = true},
    // The packet-rate cap dominates: the byte bucket sits clamped at its
    // burst limit while the pps bucket fills.
    {.name = "pps-capped: 4 RPUs, 64 B @ 1.0, 1 Mpps",
     .size = 64, .load = 1.0, .max_pps = 1e6, .max_packets = 0,
     .cycles = 30'000, .fast_forwards = true},
    {.name = "ips1k: Pigasus HW reorder, 8 RPUs, 2 ports, 1024 B",
     .pipeline = rosebud::Pipeline::kPigasusHwReorder, .rpus = 8, .ports = 2,
     .size = 1024, .load = 1.0, .max_packets = 0, .cycles = 20'000},
    // Line rate: the sources never idle, but the forwarder RPUs sleep
    // through their own RX and TX transfers (due-cycle wakes), within two
    // poll-loop periods of their last send.
    {.name = "fwd1500: 16 RPUs, 2 ports, 1500 B @ 1.0",
     .rpus = 16, .ports = 2, .size = 1500, .load = 1.0, .max_packets = 0,
     .cycles = 20'000, .max_rpu_awake = 0.20},
    {.name = "jumbo: 16 RPUs, 2 ports, 9000 B @ 1.0",
     .rpus = 16, .ports = 2, .size = 9000, .load = 1.0, .max_packets = 0,
     .cycles = 30'000},
    // One packet per cycle: every handoff moves a packet, the TX engine
    // sends the received packet object, and once the offered 1.14
    // packets per cycle have filled each 256 KiB MAC RX FIFO (about
    // 60,000 cycles) the drop path runs too.
    {.name = "fwd64: 16 RPUs, 2 ports, 64 B @ 1.0",
     .rpus = 16, .ports = 2, .size = 64, .load = 1.0, .max_packets = 0,
     .cycles = 80'000, .mac_drops = true},
    // The relays poll the LB's slot response, a core-visible input, and
    // hand every packet to a partner RPU over the loopback channel.
    {.name = "two-step loopback: 16 RPUs, 1500 B @ 1.0",
     .rpus = 16, .size = 1500, .load = 1.0, .max_packets = 0,
     .cycles = 20'000, .two_step = true},
};

TEST(ScheduleEquivalence, TimedSleepShapesAreBitIdentical) {
    for (const Shape& shape : kTimedShapes) {
        SCOPED_TRACE(shape.name);
        const SchedRun base = run_sched(Sched::kSerial, shape);
        EXPECT_EQ(run_sched(Sched::kNoIdleSkip, shape).fingerprint, base.fingerprint);
        EXPECT_EQ(run_sched(Sched::kShuffled, shape).fingerprint, base.fingerprint);
        if (shape.fast_forwards) {
            EXPECT_GT(base.fast_forwarded, 0u);
        }
        if (shape.mac_drops) {
            EXPECT_GT(base.mac_drops, 0u);
        }
        if (shape.max_rpu_awake < 1.0) {
            // Sampled in a run of its own, so the runs above each reach
            // on_wake() and skip_idle_cycles() with uninterrupted sleeps.
            const SchedRun sampled = run_sched(Sched::kSerial, shape, true);
            EXPECT_EQ(sampled.fingerprint, base.fingerprint);  // boundaries are exact
            EXPECT_LE(sampled.rpu_awake, shape.max_rpu_awake);
        }
    }
}

TEST(Resources, Arithmetic) {
    ResourceFootprint a{100, 200, 3, 4, 5};
    ResourceFootprint b{10, 20, 1, 1, 1};
    ResourceFootprint sum = a + b;
    EXPECT_EQ(sum.luts, 110u);
    EXPECT_EQ(sum.regs, 220u);
    ResourceFootprint scaled = b * 3;
    EXPECT_EQ(scaled.luts, 30u);
    ResourceFootprint diff = a.saturating_sub(b);
    EXPECT_EQ(diff.luts, 90u);
    ResourceFootprint clamped = b.saturating_sub(a);
    EXPECT_EQ(clamped.luts, 0u);
}

TEST(Resources, FormatRowContainsPercentages) {
    std::string row = format_footprint_row("Test", {118224, 0, 0, 0, 0}, kXcvu9p);
    EXPECT_NE(row.find("Test"), std::string::npos);
    EXPECT_NE(row.find("10.0%"), std::string::npos);
}

}  // namespace
}  // namespace rosebud::sim
