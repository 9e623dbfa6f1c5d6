/// Hot-path allocation audit (the perf contract behind the fast kernel).
///
/// The tick/commit path must not touch the heap: per-cycle work runs tens
/// of millions of times per benchmark, so a single stray allocation (a
/// string-keyed stats lookup, a per-cycle temporary vector) dominates host
/// time. This binary overrides global operator new with a counter and
/// asserts:
///  * an idle steady-state system (idle skipping disabled, so every
///    component really ticks every cycle) performs ZERO allocations;
///  * under traffic, allocations are bounded per *packet* (payload buffers,
///    shared_ptr control blocks), never per cycle;
///  * the one-packet-per-cycle forwarding path itself allocates nothing
///    per packet: packets move through grow-only rings and the RPU's TX
///    engine sends the received packet object back out; nor does the
///    loopback path, whose telemetry taps name their net by id;
///  * set-up pays only for the memory it touches: the RPU memories and
///    the decoded-instruction caches are demand-zero pages, and the
///    Pigasus matchers built from one rule set share one compile.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "accel/pigasus.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "net/tracegen.h"
#include "obs/health.h"
#include "obs/recorder.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void
count_alloc() {
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void*
operator new(std::size_t n) {
    count_alloc();
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n) {
    count_alloc();
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

// libstdc++ takes some temporary buffers (std::stable_sort's) from the
// nothrow forms and returns them through the plain delete above, so they
// must come from the same malloc and be counted the same way.
void*
operator new(std::size_t n, const std::nothrow_t&) noexcept {
    count_alloc();
    return std::malloc(n ? n : 1);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    count_alloc();
    return std::malloc(n ? n : 1);
}

// GCC inlines these into new-expressions and then flags free() on memory
// from operator new, not seeing that the operator new above is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rosebud {
namespace {

std::unique_ptr<System>
make_forwarder_system(unsigned rpus) {
    SystemConfig cfg;
    cfg.rpu_count = rpus;
    auto sys = std::make_unique<System>(cfg);
    auto fw = fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();
    return sys;
}

long
minor_faults() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

// Each RPU models 64 KB IMEM, 32 KB DMEM, 1 MB packet memory, 256 KB
// accelerator memory and a 256 KB decoded-instruction cache: about 410
// pages, of which a forwarder touches a few dozen. Building, loading and
// booting 16 of them and running 500 cycles must fault in only what the
// run touches, not the ~6,700 pages a zero-filled System takes.
TEST(SetupBudget, SixteenRpuForwarderFaultsInOnlyTouchedPages) {
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "sanitizer shadow memory page-faults too";
#endif
    const long before = minor_faults();
    auto sys = make_forwarder_system(16);
    sys->run_cycles(500);
    const long added = minor_faults() - before;
    EXPECT_LT(added, 1000) << "minor page faults";
}

TEST(HotPath, IdleSteadyStateAllocatesNothing) {
    auto sys = make_forwarder_system(4);
    // Disable idle skipping so every component's tick()/commit() really
    // executes every cycle — the audit must cover the full per-cycle path,
    // not the fast-forwarded one.
    sys->kernel().set_idle_skip(false);
    sys->run_cycles(2000);  // warm-up: lazily sized buffers, stats handles

    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(5000);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "per-cycle tick/commit path touched the heap";
}

TEST(HotPath, TrafficAllocationsAreBoundedPerPacket) {
    auto sys = make_forwarder_system(4);

    net::TrafficSpec tspec;
    tspec.packet_size = 512;
    tspec.seed = 31;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
    sys->add_source({.port = 0, .line_gbps = 100.0, .load = 0.5},
                    [gen] { return gen->next(); });
    sys->run_cycles(10'000);  // steady state

    // The forwarder firmware cross-forwards: traffic offered on port 0
    // egresses on port 1.
    uint64_t frames_before = sys->sink(0).frames() + sys->sink(1).frames();
    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(20'000);
    g_counting.store(false);
    uint64_t packets =
        sys->sink(0).frames() + sys->sink(1).frames() - frames_before;

    ASSERT_GT(packets, 100u);  // the workload actually flowed
    // Generous per-packet budget (payload buffer, control block, queue
    // churn). What this catches is per-cycle growth: 20k cycles at even
    // one allocation per cycle would blow this bound several times over.
    EXPECT_LT(g_allocs.load(), packets * 64)
        << "allocations grew with cycles, not packets ("
        << g_allocs.load() << " allocs for " << packets << " packets)";
}

/// DUT allocations per forwarded packet on Fig 7a's 64 B point: 16 RPUs
/// running the forwarder, both ports at line rate, 100,000 cycles after a
/// 20,000-cycle warm-up. The generators hand out packets built before
/// the run, so every allocation counted is the DUT's. `observed` attaches
/// the health monitor and an all-stage flight recorder first.
double
forwarding_allocs_per_packet(lb::Policy policy, bool observed = false) {
    constexpr sim::Cycle kWarmup = 20'000, kWindow = 100'000;
    SystemConfig cfg;
    cfg.rpu_count = 16;
    cfg.lb_policy = policy;
    System sys(cfg);
    auto fw = fwlib::forwarder({}, policy == lb::Policy::kHash);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    obs::HealthMonitor mon;
    obs::FlightRecorder rec;
    if (observed) {
        mon.attach(sys);
        rec.attach(sys);
    }

    // 64 B frames take 88 B of line time: at most 50/88 packets per cycle
    // per port. Distinct UDP source ports spread the flows over all RPUs
    // under the hash policy.
    const size_t per_port = size_t((kWarmup + kWindow) * 50 / 88) + 64;
    std::vector<std::shared_ptr<std::vector<net::PacketPtr>>> pools;
    for (unsigned port = 0; port < 2; ++port) {
        auto pool = std::make_shared<std::vector<net::PacketPtr>>();
        pool->reserve(per_port);
        for (size_t i = 0; i < per_port; ++i) {
            net::PacketBuilder b;
            b.ipv4(0x0a000001 + port, 0x0a000002)
                .udp(uint16_t(1024 + i % 4096), 2000)
                .frame_size(64);
            pool->push_back(b.build());
        }
        pools.push_back(pool);
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 1.0},
                       [pool, next = size_t(0)]() mutable -> net::PacketPtr {
                           if (next == pool->size()) return nullptr;
                           return std::move((*pool)[next++]);
                       });
    }
    sys.run_cycles(kWarmup);

    const uint64_t frames_before = sys.sink(0).frames() + sys.sink(1).frames();
    g_allocs.store(0);
    g_counting.store(true);
    sys.run_cycles(kWindow);
    g_counting.store(false);
    const uint64_t packets =
        sys.sink(0).frames() + sys.sink(1).frames() - frames_before;

    // The pools outlasted the window, and the DUT forwarded within 10% of
    // the firmware's cap of one packet per loop on each of the 16 RPUs. The
    // loop takes 16 cycles, or 18 when it also leaves out the hash word
    // (the hash policy's flow affinity costs a little more).
    for (const auto& pool : pools) EXPECT_TRUE(pool->back()) << "pool ran dry";
    const uint64_t loop_cycles = policy == lb::Policy::kHash ? 18 : 16;
    EXPECT_GT(packets, kWindow * 16 / loop_cycles * 9 / 10);
    if (observed) {
        EXPECT_GE(mon.egress_packets(), packets);  // the observers really ran
        EXPECT_GT(rec.recorded(), 7 * packets);
        mon.detach();
    }
    return double(g_allocs.load()) / double(packets);
}

TEST(HotPath, ForwardingPathAllocatesNothingPerPacket) {
    EXPECT_LE(forwarding_allocs_per_packet(lb::Policy::kRoundRobin), 0.01);
    // The hash policy adds the flow hash and the steering pick, which must
    // allocate nothing either. The forwarder sends the frame without the
    // 4-byte hash word, so the sent frame reuses the received byte buffer.
    EXPECT_LE(forwarding_allocs_per_packet(lb::Policy::kHash), 0.01);
}

// The loopback path as exp::run_loopback drives it: 16 RPUs run the
// two-step forwarder, the first 8 receive port 0's traffic at 100G line
// rate and send every packet over the loopback channel to a partner,
// which forwards it out. The pool's 512 B frames are moved out, so the
// DUT holds the only reference: a copied pointer would send the TX engine
// down its fresh-packet path. Every allocation counted is the DUT's, per
// packet that crossed the loopback channel.
TEST(HotPath, LoopbackPathAllocatesNothingPerPacket) {
    constexpr sim::Cycle kWarmup = 20'000, kWindow = 100'000;
    constexpr unsigned kRpus = 16;
    SystemConfig cfg;
    cfg.rpu_count = kRpus;
    System sys(cfg);
    auto fw = fwlib::two_step_forwarder(kRpus);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    sys.host().set_recv_mask((1u << (kRpus / 2)) - 1);

    // 512 B frames take 536 B of line time: at most 50/536 per cycle.
    const size_t count = size_t((kWarmup + kWindow) * 50 / 536) + 64;
    auto pool = std::make_shared<std::vector<net::PacketPtr>>();
    pool->reserve(count);
    for (size_t i = 0; i < count; ++i) {
        net::PacketBuilder b;
        b.ipv4(0x0a000001, 0x0a000002).udp(uint16_t(1024 + i % 4096), 2000).frame_size(512);
        pool->push_back(b.build());
    }
    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0},
                   [pool, next = size_t(0)]() mutable -> net::PacketPtr {
                       if (next == pool->size()) return nullptr;
                       return std::move((*pool)[next++]);
                   });
    sys.run_cycles(kWarmup);

    const uint64_t frames_before = sys.stats().get("loopback.frames");
    g_allocs.store(0);
    g_counting.store(true);
    sys.run_cycles(kWindow);
    g_counting.store(false);
    const uint64_t packets = sys.stats().get("loopback.frames") - frames_before;

    EXPECT_TRUE(pool->back()) << "pool ran dry";
    // The channel carried at least 90% of the offered line rate.
    EXPECT_GT(packets, kWindow * 50 / 536 * 9 / 10);
    EXPECT_LE(double(g_allocs.load()) / double(packets), 0.01)
        << g_allocs.load() << " allocs for " << packets << " loopback packets";
}

// The production health layer's cost contract: attaching it must not add
// heap traffic to the steady-state path. Its per-packet/per-cycle work
// lands in preallocated PODs (flight-recorder ring, HDR histogram
// buckets); allocation is reserved for rare events (trips, notes, epoch
// verdicts).
TEST(HotPath, IdleSteadyStateWithHealthAttachedAllocatesNothing) {
    auto sys = make_forwarder_system(4);
    obs::HealthMonitor mon;
    mon.attach(*sys);
    sys->kernel().set_idle_skip(false);
    sys->run_cycles(2000);  // warm-up, same as the detached audit

    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(5000);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "health layer touched the heap on the idle per-cycle path";
    mon.detach();
}

// The typed packet-event stream costs no allocation either: the System's
// fan-out, the health monitor's per-packet accounting and an all-stage
// flight recorder keep the forwarding path at the detached bound.
TEST(HotPath, ForwardingPathWithHealthAndRecorderAllocatesNothingPerPacket) {
    EXPECT_LE(forwarding_allocs_per_packet(lb::Policy::kRoundRobin, /*observed=*/true),
              0.01);
}

TEST(HotPath, TrafficWithHealthAttachedStaysBoundedPerPacket) {
    auto sys = make_forwarder_system(4);
    obs::HealthMonitor mon;
    mon.attach(*sys);

    net::TrafficSpec tspec;
    tspec.packet_size = 512;
    tspec.seed = 31;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
    sys->add_source({.port = 0, .line_gbps = 100.0, .load = 0.5},
                    [gen] { return gen->next(); });
    sys->run_cycles(10'000);  // steady state

    uint64_t frames_before = sys->sink(0).frames() + sys->sink(1).frames();
    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(20'000);
    g_counting.store(false);
    uint64_t packets =
        sys->sink(0).frames() + sys->sink(1).frames() - frames_before;

    ASSERT_GT(packets, 100u);
    EXPECT_GT(mon.ingress_packets(), 100u);  // the monitor really observed
    // Same per-packet budget as the detached audit: the health layer's
    // per-packet cost must be allocation-free, so the bound does not move.
    EXPECT_LT(g_allocs.load(), packets * 64)
        << "health layer allocations grew with cycles, not packets ("
        << g_allocs.load() << " allocs for " << packets << " packets)";
    mon.detach();
}

// Every RPU's Pigasus engine is loaded with the same rule set, so the
// first matcher built from it pays the set's one compile (about 390
// allocations for 64 rules) and the others share it, allocating only
// their own FIFOs.
TEST(SetupBudget, PigasusMatchersShareOneCompile) {
    sim::Rng rng(5);
    const net::IdsRuleSet rules = net::IdsRuleSet::synthesize(64, rng);
    std::vector<std::unique_ptr<accel::PigasusMatcher>> matchers;
    matchers.reserve(8);
    std::vector<uint64_t> allocs;
    for (int i = 0; i < 8; ++i) {
        g_allocs.store(0);
        g_counting.store(true);
        matchers.push_back(std::make_unique<accel::PigasusMatcher>(rules));
        g_counting.store(false);
        allocs.push_back(g_allocs.load());
    }
    EXPECT_GT(allocs[0], 8u) << "the first matcher did not compile";
    for (int i = 1; i < 8; ++i)
        EXPECT_LE(allocs[i], 8u) << "matcher " << i << " compiled the rule set again";
}

// The Pigasus matcher runs one job per packet in the IPS pipelines. Its
// scratch buffers, FIFOs and counter handles live in the matcher, and it
// scans packet memory in place, so a job that matches nothing allocates
// nothing.
TEST(HotPath, PigasusJobAllocatesNothing) {
    sim::Rng rng(5);
    accel::PigasusMatcher pig(net::IdsRuleSet::synthesize(64, rng));
    mem::Memory pmem("pmem", 64 * 1024);
    mem::Memory amem("amem", 4 * 1024);
    sim::Stats stats;
    rpu::AccelContext ctx{pmem, amem, stats, 0};
    // 1 KB of text that no rule matches; its letters walk the automaton.
    std::string text;
    while (text.size() < 1024) text += "GET /index.html HTTP/1.1 host: example.org ";
    pmem.write_block(0x100, reinterpret_cast<const uint8_t*>(text.data()), 1024);

    // One job through the firmware's MMIO protocol; returns the first
    // result's rule id (0 = only the end-of-packet marker).
    auto job = [&] {
        pig.mmio_write(accel::kPigRegDmaAddr, 0x01000100, ctx);
        pig.mmio_write(accel::kPigRegDmaLen, 1024, ctx);
        pig.mmio_write(accel::kPigRegStateH, 1, ctx);
        pig.mmio_write(accel::kPigRegCtrl, 1, ctx);
        uint32_t ready = 0;
        for (int cycle = 0; !ready && cycle < 1000; ++cycle) {
            ++ctx.now_cycles;
            pig.tick(ctx);
            pig.mmio_read(accel::kPigRegMatch, ready, ctx);
        }
        if (!ready) return ~0u;
        uint32_t rule = 0;
        pig.mmio_read(accel::kPigRegRuleId, rule, ctx);
        pig.mmio_write(accel::kPigRegCtrl, 2, ctx);
        return rule;
    };
    ASSERT_EQ(job(), 0u);  // warm-up: resolves the counters, sizes the scratch

    uint32_t rules_seen = 0;
    g_allocs.store(0);
    g_counting.store(true);
    for (int i = 0; i < 100; ++i) rules_seen |= job();
    g_counting.store(false);

    EXPECT_EQ(rules_seen, 0u) << "a job matched or did not complete";
    EXPECT_EQ(stats.get("pigasus.jobs"), 101u);
    EXPECT_EQ(g_allocs.load(), 0u) << "Pigasus jobs touched the heap";
}

}  // namespace
}  // namespace rosebud
