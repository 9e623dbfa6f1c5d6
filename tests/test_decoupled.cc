/// \file
/// Lockstep equivalence suite for the time-decoupled kernel (DESIGN.md §16).
///
/// The load-bearing property is bit-identical final state: a decoupled run
/// over a certified ShardPlan must reach exactly the fingerprint the
/// barrier-synchronous kernel reaches on the same workload, for every
/// shard count and executor mode — and the
/// dynamic cross-checks must actually catch a lookahead claim the runtime
/// does not honor (the negative direction, without which the positive
/// tests prove nothing).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/system.h"
#include "firmware/programs.h"
#include "lint/shard.h"
#include "net/tracegen.h"
#include "obs/shardcheck.h"
#include "sim/shard.h"

namespace rosebud {
namespace {

constexpr sim::Cycle kRun = 10'000;

struct RunResult {
    uint64_t fingerprint = 0;
    uint64_t sink_frames = 0;
    uint64_t sink_bytes = 0;
    bool decoupled = false;
};

std::unique_ptr<System> build_system(unsigned rpus, bool hw_reassembler = false) {
    SystemConfig cfg;
    cfg.rpu_count = rpus;
    cfg.hw_reassembler = hw_reassembler;
    auto sys = std::make_unique<System>(cfg);
    fwlib::Program fw = fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = 256;
        tspec.seed = 7u * 2654435761u + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        dist::TrafficSource::Config src;
        src.port = port;
        src.load = 0.7;
        sys->add_source(src, [gen] { return gen->next(); });
    }
    return sys;
}

RunResult run_workload(unsigned shards, sim::ShardSpec::Exec exec,
                       sim::Cycle cycles = kRun, bool hw_reassembler = false) {
    std::unique_ptr<System> sys = build_system(8, hw_reassembler);
    if (shards > 1) {
        sys->set_decouple_exec(exec);
        sys->set_decouple_shards(shards);
    }
    sys->run_cycles(cycles);
    RunResult r;
    r.fingerprint = sys->state_fingerprint();
    for (unsigned port = 0; port < 2; ++port) {
        r.sink_frames += sys->sink(port).frames();
        r.sink_bytes += sys->sink(port).bytes();
    }
    r.decoupled = sys->decoupled_active();
    return r;
}

// --- lockstep equivalence: barrier vs time-decoupled ------------------------

TEST(Decoupled, EquivalenceAcrossShardCountsAndExecutors) {
    const RunResult barrier = run_workload(0, sim::ShardSpec::Exec::kAuto);
    ASSERT_GT(barrier.sink_frames, 0u);

    struct Case {
        unsigned shards;
        sim::ShardSpec::Exec exec;
        const char* name;
    };
    const Case cases[] = {
        {2, sim::ShardSpec::Exec::kCoop, "2-shard coop"},
        {4, sim::ShardSpec::Exec::kCoop, "4-shard coop"},
        {2, sim::ShardSpec::Exec::kThreads, "2-shard threads"},
        {4, sim::ShardSpec::Exec::kThreads, "4-shard threads"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const RunResult dec = run_workload(c.shards, c.exec);
        EXPECT_TRUE(dec.decoupled)
            << "decoupled executor failed to install for " << c.name;
        EXPECT_EQ(dec.fingerprint, barrier.fingerprint);
        EXPECT_EQ(dec.sink_frames, barrier.sink_frames);
        EXPECT_EQ(dec.sink_bytes, barrier.sink_bytes);
    }
}

TEST(Decoupled, ShardsOneIsTheNullPlan) {
    const RunResult barrier = run_workload(0, sim::ShardSpec::Exec::kAuto);
    const RunResult null_plan = run_workload(1, sim::ShardSpec::Exec::kAuto);
    EXPECT_FALSE(null_plan.decoupled);
    EXPECT_EQ(null_plan.fingerprint, barrier.fingerprint);
    EXPECT_EQ(null_plan.sink_frames, barrier.sink_frames);
}

TEST(Decoupled, HwReassemblerFallsBackToBarrier) {
    // The inline reorder engine is a structural obstacle: the request must
    // warn, fall back, and still produce the barrier kernel's exact state.
    const RunResult barrier =
        run_workload(0, sim::ShardSpec::Exec::kAuto, kRun, true);
    const RunResult dec =
        run_workload(4, sim::ShardSpec::Exec::kCoop, kRun, true);
    EXPECT_FALSE(dec.decoupled);
    EXPECT_EQ(dec.fingerprint, barrier.fingerprint);
}

// --- negative: a lookahead claim the runtime does not honor is caught -------

TEST(Decoupled, UnderstatedLookaheadIsCaught) {
    // Doctor a certified plan so every cut data edge claims far more
    // lookahead than the netlist actually provides, then let the dynamic
    // recorder watch a barrier run. If the cross-check cannot flag this
    // fabricated certificate, it could not flag a real certifier bug
    // either.
    std::unique_ptr<System> sys = build_system(8);
    lint::ShardPlan plan = sys->shard_plan(2);
    ASSERT_TRUE(plan.sound);
    ASSERT_FALSE(plan.cuts.empty());
    for (lint::ShardCut& c : plan.cuts) c.edge.latency += 99;

    obs::ShardLatencyRecorder rec(sys->kernel(), plan, nullptr,
                                  /*fault_on_undercut=*/false);
    sys->kernel().set_telemetry(&rec);
    sys->run_cycles(kRun);
    sys->kernel().set_telemetry(nullptr);

    EXPECT_FALSE(rec.ok());
    bool undercut_seen = false;
    for (const obs::CutLatency& c : rec.observations())
        if (c.undercut) undercut_seen = true;
    EXPECT_TRUE(undercut_seen);
}

TEST(Decoupled, CutChannelStatsExposeEarlyRelease) {
    // Channel-level version of the same property: the decoupled pass of
    // obs::run_shard_check trips on min_latency < certified, so a drain
    // that releases an entry before the certified bound must be visible
    // in the stats.
    sim::CutChannel<int> good("good.net", 3);
    good.push(10, 1);
    good.drain_upto(12, [](sim::Cycle, int) {});  // released at 13: lat 3
    EXPECT_GE(good.stats().min_latency, good.stats().certified);

    sim::CutChannel<int> bad("bad.net", 3);
    bad.push(10, 1);
    bad.drain_upto(10, [](sim::Cycle, int) {});  // released at 11: lat 1
    const sim::CutChannelStats st = bad.stats();
    EXPECT_EQ(st.delivered, 1u);
    EXPECT_LT(st.min_latency, st.certified);
}

TEST(Decoupled, ShardCheckDecoupledPass) {
    struct Case {
        unsigned rpus;
        unsigned shards;
        uint32_t packet_size;
        double load;
        sim::Cycle cycles;
        const char* name;
    };
    const Case cases[] = {
        {8, 2, 256, 0.7, 8'000, "8 RPUs, 256 B, load 0.7, 2 shards"},
        // Saturated: 16 RPUs at line rate keep the DUT shard ticking every
        // cycle, with every shard on its own thread on a multi-core host.
        // This is the load at which concurrency inside one shard's tick
        // loop (e.g. an RPU woken from two threads) diverges from the
        // barrier kernel; a small, lightly loaded DUT never shows it.
        {16, 4, 1500, 1.0, 60'000, "16 RPUs, 1500 B, line rate, 4 shards"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        obs::ShardCheckSpec spec;
        spec.rpu_count = c.rpus;
        spec.shards = c.shards;
        spec.decouple = c.shards;
        spec.packet_size = c.packet_size;
        spec.load = c.load;
        spec.run_cycles = c.cycles;
        const obs::ShardCheckResult res = obs::run_shard_check(spec);
        EXPECT_TRUE(res.ok);
        EXPECT_TRUE(res.decoupled_ran);
        EXPECT_TRUE(res.decoupled_ok);
        EXPECT_EQ(res.decoupled_fingerprint, res.barrier_fingerprint);
        ASSERT_FALSE(res.channels.empty());
        uint64_t delivered = 0;
        for (const sim::CutChannelStats& ch : res.channels) {
            delivered += ch.delivered;
            if (ch.delivered > 0) {
                EXPECT_GE(ch.min_latency, ch.certified);
            }
        }
        EXPECT_GT(delivered, 0u);
    }
}

// --- certifier verdict stability (satellite: 8-way no-safe-cut) -------------

TEST(Decoupled, EightWayVerdictIsStable) {
    std::unique_ptr<System> sys = build_system(16);
    const lint::ShardPlan a = sys->shard_plan(8);
    const lint::ShardPlan b = sys->shard_plan(8);
    EXPECT_FALSE(a.sound);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_NE(a.verdict.find("no safe 8-way cut"), std::string::npos);
    EXPECT_NE(a.verdict.find("cheapest registerization"), std::string::npos);
    EXPECT_EQ(a.cheapest_registerization, b.cheapest_registerization);
    EXPECT_GE(a.unlocked_atoms, 8u);
    ASSERT_EQ(a.blockers.size(), a.blocker_multiplicity.size());
    for (unsigned m : a.blocker_multiplicity) EXPECT_GE(m, 1u);
}

}  // namespace
}  // namespace rosebud
