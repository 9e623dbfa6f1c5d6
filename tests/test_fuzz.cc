/// Conformance-fuzzing subsystem tests (src/fuzz): corpus format and
/// regression replay, campaign determinism, the three delta-debugging
/// minimizers against injected synthetic bugs, and the 1k-config
/// fingerprint-stability sweep (serial vs shuffled tick order).
///
/// The corpus replay test walks tests/corpus/*.case — every file there is
/// a minimized reproduction of a bug that has since been fixed, and must
/// replay green forever. ROSEBUD_CORPUS_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/cfg_fuzz.h"
#include "fuzz/corpus.h"
#include "fuzz/driver.h"
#include "fuzz/fw_fuzz.h"
#include "fuzz/pkt_fuzz.h"
#include "rv/assembler.h"
#include "sim/log.h"

namespace rosebud {
namespace {

using fuzz::CorpusCase;

// --- corpus format ---------------------------------------------------------

TEST(FuzzCorpus, FirmwareCaseRoundTrips) {
    CorpusCase c;
    c.kind = CorpusCase::Kind::kFirmware;
    c.seed = 0xdeadbeef12345678ULL;
    c.note = "round trip check";
    c.image = {0x00000013u, 0x00100073u, 0xfffff0b7u};

    CorpusCase back = fuzz::corpus_from_text(fuzz::corpus_to_text(c));
    EXPECT_EQ(back.kind, c.kind);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.note, c.note);
    EXPECT_EQ(back.image, c.image);
}

TEST(FuzzCorpus, PacketCaseRoundTrips) {
    CorpusCase c;
    c.kind = CorpusCase::Kind::kPacket;
    c.seed = 42;
    c.pkt.pipeline = oracle::Pipeline::kPigasusSwReorder;
    c.pkt.policy = lb::Policy::kHash;
    c.pkt.rpu_count = 4;
    c.pkt.packet_size = 313;
    c.frames = {{0x00, 0x11, 0xab, 0xff}, {0xde, 0xad}};

    CorpusCase back = fuzz::corpus_from_text(fuzz::corpus_to_text(c));
    EXPECT_EQ(back.kind, c.kind);
    EXPECT_EQ(back.pkt.pipeline, c.pkt.pipeline);
    EXPECT_EQ(back.pkt.policy, c.pkt.policy);
    EXPECT_EQ(back.pkt.rpu_count, c.pkt.rpu_count);
    EXPECT_EQ(back.pkt.packet_size, c.pkt.packet_size);
    EXPECT_EQ(back.pkt.seed, c.seed);
    EXPECT_EQ(back.frames, c.frames);
}

// One name table serves the CLI and the corpus: every pipeline's name
// parses back to it, and corpus files spell it the same way.
TEST(FuzzCorpus, PipelineNamesRoundTrip) {
    using oracle::Pipeline;
    for (Pipeline p : {Pipeline::kForwarder, Pipeline::kFirewall, Pipeline::kPigasusHwReorder,
                       Pipeline::kPigasusSwReorder, Pipeline::kNat}) {
        const std::string name = oracle::pipeline_name(p);
        EXPECT_EQ(oracle::parse_pipeline(name), p) << name;
        CorpusCase c;
        c.kind = CorpusCase::Kind::kPacket;
        c.pkt.pipeline = p;
        std::string text = fuzz::corpus_to_text(c);
        EXPECT_NE(text.find("pipeline " + name + "\n"), std::string::npos) << text;
        EXPECT_EQ(fuzz::corpus_from_text(text).pkt.pipeline, p) << name;
    }
}

TEST(FuzzCorpus, ConfigCaseRoundTrips) {
    CorpusCase c;
    c.kind = CorpusCase::Kind::kConfig;
    c.seed = 7;
    c.deltas = {{fuzz::CfgField::kVoqDepth, 2},
                {fuzz::CfgField::kRpuCount, 12},
                {fuzz::CfgField::kBcastTxDepth, 9}};

    CorpusCase back = fuzz::corpus_from_text(fuzz::corpus_to_text(c));
    EXPECT_EQ(back.kind, c.kind);
    ASSERT_EQ(back.deltas.size(), c.deltas.size());
    for (size_t i = 0; i < c.deltas.size(); ++i) {
        EXPECT_EQ(back.deltas[i].field, c.deltas[i].field);
        EXPECT_EQ(back.deltas[i].value, c.deltas[i].value);
    }
}

TEST(FuzzCorpus, MalformedTextFatals) {
    EXPECT_THROW(fuzz::corpus_from_text("not a corpus file"), sim::FatalError);
    EXPECT_THROW(fuzz::corpus_from_text("rosebud-fuzz-case v1\nkind bogus\n"),
                 sim::FatalError);
    EXPECT_THROW(
        fuzz::corpus_from_text("rosebud-fuzz-case v1\nkind fw\nword xyz\n"),
        sim::FatalError);
}

// --- regression corpus -----------------------------------------------------

/// Every checked-in case is a fixed bug's reproduction; all must be green.
TEST(FuzzCorpus, CheckedInCasesReplayGreen) {
    auto files = fuzz::corpus_list(ROSEBUD_CORPUS_DIR);
    ASSERT_FALSE(files.empty()) << "no corpus at " << ROSEBUD_CORPUS_DIR;
    for (const auto& path : files) {
        CorpusCase c = fuzz::corpus_load(path);
        std::string detail;
        EXPECT_TRUE(fuzz::corpus_replay(c, &detail))
            << path << " regressed: " << detail;
    }
}

// --- campaign driver -------------------------------------------------------

TEST(FuzzCampaign, CaseSeedsAreAPureFunctionOfTheCampaignSeed) {
    EXPECT_EQ(fuzz::campaign_case_seed(1, 0), fuzz::campaign_case_seed(1, 0));
    EXPECT_NE(fuzz::campaign_case_seed(1, 0), fuzz::campaign_case_seed(1, 1));
    EXPECT_NE(fuzz::campaign_case_seed(1, 0), fuzz::campaign_case_seed(2, 0));
}

TEST(FuzzCampaign, SameSeedSameCaseCapSameReport) {
    fuzz::FuzzPlan plan;
    plan.seed = 7;
    plan.max_cases = 2;
    plan.budget_ms = 600'000;  // never the binding constraint here
    plan.minimize = false;

    fuzz::FuzzReport a = fuzz::run_campaign(plan);
    fuzz::FuzzReport b = fuzz::run_campaign(plan);
    EXPECT_EQ(a.fw_cases, b.fw_cases);
    EXPECT_EQ(a.fw_pass, b.fw_pass);
    EXPECT_EQ(a.fw_inadmissible, b.fw_inadmissible);
    EXPECT_EQ(a.pkt_cases, b.pkt_cases);
    EXPECT_EQ(a.pkt_pass, b.pkt_pass);
    EXPECT_EQ(a.cfg_cases, b.cfg_cases);
    EXPECT_EQ(a.cfg_pass, b.cfg_pass);
    EXPECT_EQ(a.cfg_rejected, b.cfg_rejected);
    EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(FuzzCampaign, DefaultSeedSmokeSliceIsClean) {
    fuzz::FuzzPlan plan;  // seed 1: the CI smoke campaign's seed
    plan.max_cases = 3;
    plan.budget_ms = 600'000;
    fuzz::FuzzReport rep = fuzz::run_campaign(plan);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.total_cases(), 9u);
}

// --- WCET soundness oracle -------------------------------------------------

TEST(FuzzWcet, KindNameRoundTrips) {
    EXPECT_STREQ(fuzz::fw_kind_name(fuzz::FwKind::kWcetExceeded), "wcet-exceeded");
}

/// Every admissible generated program that runs to completion must retire
/// no more instructions than its certified static WCET bound. A
/// kWcetExceeded verdict anywhere in this fixed-seed slice means the
/// certifier's longest-path/loop-bound arithmetic is unsound.
TEST(FuzzWcet, FixedSeedSliceHasNoWcetSoundnessViolations) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        fuzz::FwCase c = fuzz::generate_firmware(seed);
        fuzz::FwVerdict v = fuzz::run_firmware_lockstep(c);
        EXPECT_NE(v.kind, fuzz::FwKind::kWcetExceeded)
            << "seed " << seed << ": " << v.detail;
    }
}

// The lockstep's device model checks DMEM ranges in 64 bits: a word load
// through a pointer of 0xfffffffc, which passes the alignment check, must
// trap on both sides instead of indexing 4 GB past the model's DMEM.
TEST(FuzzLockstep, LoadNearTwoToThe32TrapsOnBothSides) {
    using namespace rv;
    Assembler a;
    a.lui(t1, 0x800);  // DMEM base
    a.li(t0, -4);
    a.sw(t0, 0, t1);
    a.lw(t2, 0, t1);
    a.lw(a0, 0, t2);
    a.ebreak();
    fuzz::FwCase c;
    c.image = a.assemble();
    fuzz::FwVerdict v = fuzz::run_firmware_lockstep(c);
    EXPECT_EQ(v.kind, fuzz::FwKind::kPass) << v.detail;
}

// --- minimizers vs injected bugs -------------------------------------------

TEST(FuzzMinimize, InjectedRefModelBugShrinksToEightInstructions) {
    fuzz::FwOptions opts;
    opts.inject_div_bug = true;
    fuzz::FwCase c = fuzz::generate_firmware(1, opts);
    fuzz::FwVerdict v = fuzz::run_firmware_lockstep(c, opts);
    ASSERT_EQ(v.kind, fuzz::FwKind::kDiverge) << v.detail;

    uint32_t live = 0;
    fuzz::FwCase min = fuzz::minimize_firmware(c, opts, &live);
    EXPECT_LE(live, 8u);
    EXPECT_EQ(fuzz::run_firmware_lockstep(min, opts).kind, fuzz::FwKind::kDiverge);
}

TEST(FuzzMinimize, InjectedOracleBugShrinksToTwoPackets) {
    fuzz::PktOptions opts;
    opts.inject_oracle_bug = true;
    fuzz::PktCase c = fuzz::generate_packet_case(1, opts);
    fuzz::PktVerdict v = fuzz::run_packet_case(c, opts);
    ASSERT_EQ(v.kind, fuzz::PktKind::kDiverge);

    auto min = fuzz::minimize_packets(c, opts, v.frames);
    EXPECT_LE(min.size(), 2u);
    EXPECT_FALSE(fuzz::replay_packet_case(c, opts, min).ok());
}

TEST(FuzzMinimize, InjectedConfigBugShrinksToThreeCoupledFields) {
    fuzz::CfgOptions opts;
    opts.inject_cfg_bug = true;
    fuzz::CfgCase c = fuzz::generate_config_case(1, opts);
    ASSERT_EQ(fuzz::run_config_case(c, opts).kind, fuzz::CfgKind::kDiverge);

    auto min = fuzz::minimize_config(c, opts);
    EXPECT_LE(min.size(), 3u);
    fuzz::CfgCase reduced{c.seed, min};
    EXPECT_EQ(fuzz::run_config_case(reduced, opts).kind, fuzz::CfgKind::kDiverge);
}

// --- fingerprint stability -------------------------------------------------

/// 1000 fuzzed configurations, each executed twice by run_config_case —
/// once in registration order, once with the kernel's component tick order
/// shuffled — must land on identical state fingerprints. A kFingerprint
/// (or kDiverge) verdict here is a config-dependent two-phase race.
TEST(FuzzConfig, FingerprintStableUnderShuffledTickOrderAcross1kConfigs) {
    fuzz::CfgOptions opts;
    opts.with_oracle = false;  // fingerprint-only probe: keeps 1k samples fast
    opts.max_packets = 10;
    opts.run_cycles = 3000;
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        fuzz::CfgCase c = fuzz::generate_config_case(seed, opts);
        fuzz::CfgVerdict v = fuzz::run_config_case(c, opts);
        ASSERT_NE(v.kind, fuzz::CfgKind::kFingerprint)
            << "seed " << seed << ": " << v.detail;
        ASSERT_NE(v.kind, fuzz::CfgKind::kDiverge)
            << "seed " << seed << ": " << v.detail;
    }
}

}  // namespace
}  // namespace rosebud
