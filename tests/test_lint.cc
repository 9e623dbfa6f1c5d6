/// Elaboration-time netlist linter and dynamic race detector tests.
///
/// Three layers, mirroring src/lint/'s design:
///  * every static check has a negative test that provably fires on a
///    hand-declared bad netlist (and a positive control showing the same
///    shape passes once fixed);
///  * the two-phase race detector faults on same-cycle cross-component
///    FIFO access patterns whose outcome would depend on tick
///    order, and stays silent on the legal patterns;
///  * a full System elaborates with zero violations, and its runs are
///    bit-identical (same state fingerprint) under shuffled tick orders.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/firewall.h"
#include "core/system.h"
#include "firmware/programs.h"
#include "lint/netlist.h"
#include "net/rules.h"
#include "net/tracegen.h"
#include "sim/fifo.h"
#include "sim/kernel.h"
#include "sim/log.h"
#include "sim/random.h"

namespace rosebud {
namespace {

using lint::Check;
using lint::Violation;
using sim::NetRecord;
using sim::PortRecord;

bool
has(const std::vector<Violation>& vs, Check c, const std::string& subject = "") {
    for (const auto& v : vs) {
        if (v.check == c && (subject.empty() || v.subject == subject)) return true;
    }
    return false;
}

std::vector<Violation>
run_checks(const sim::Kernel& k) {
    return lint::check_netlist(k, {});
}

// --- static checks: one firing negative test per check -----------------------

TEST(LintStatic, CleanHandNetlistHasNoViolations) {
    sim::Kernel k;
    k.declare_net({"a.q", NetRecord::kFifo, 64, 8, 0});
    k.declare_port({"w", "a.q", PortRecord::kWrite, 64, 8});
    k.declare_port({"r", "a.q", PortRecord::kRead, 64, 0});
    auto vs = run_checks(k);
    EXPECT_TRUE(vs.empty()) << lint::report(vs);
}

// A net is declared once, like a wire elaborated once: the declaration
// returns its id (its index in nets()), and a second declaration of the
// same name is a simulator bug that panics and names the net.
TEST(LintElaboration, NetIdIsTheDeclarationIndex) {
    sim::Kernel k;
    EXPECT_EQ(k.declare_net({"a.q", NetRecord::kFifo, 64, 8, 0}), 0u);
    EXPECT_EQ(k.declare_net({"b.q", NetRecord::kFifo, 64, 8, 0}), 1u);
    EXPECT_EQ(k.net_id("b.q"), 1u);
    EXPECT_EQ(k.nets()[k.net_id("a.q")].name, "a.q");
    EXPECT_EQ(k.net_id("ghost"), sim::kNoNet);
}

TEST(LintElaborationDeathTest, SecondDeclarationOfANetPanics) {
    sim::Kernel k;
    k.declare_net({"a.q", NetRecord::kFifo, 64, 8, 0});
    EXPECT_DEATH(k.declare_net({"a.q", NetRecord::kLink, 32, 1, 0}),
                 "net 'a\\.q' declared twice");
}

TEST(LintStatic, UnknownNetFires) {
    sim::Kernel k;
    k.declare_port({"w", "ghost", PortRecord::kWrite, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kUnknownNet, "ghost"));
}

TEST(LintStatic, DanglingNetFires) {
    sim::Kernel k;
    k.declare_net({"orphan", NetRecord::kFifo, 64, 4, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kDangling, "orphan"));
}

TEST(LintStatic, NeverWrittenFiresUnlessExternalSource) {
    sim::Kernel k;
    k.declare_net({"ro", NetRecord::kFifo, 64, 4, 0});
    k.declare_port({"r", "ro", PortRecord::kRead, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kNeverWritten, "ro"));

    sim::Kernel k2;
    k2.declare_net({"ro", NetRecord::kFifo, 64, 4, sim::kNetExternalSource});
    k2.declare_port({"r", "ro", PortRecord::kRead, 0, 0});
    EXPECT_FALSE(has(run_checks(k2), Check::kNeverWritten));
}

TEST(LintStatic, NeverReadFiresUnlessExternalSink) {
    sim::Kernel k;
    k.declare_net({"wo", NetRecord::kFifo, 64, 4, 0});
    k.declare_port({"w", "wo", PortRecord::kWrite, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kNeverRead, "wo"));

    sim::Kernel k2;
    k2.declare_net({"wo", NetRecord::kFifo, 64, 4, sim::kNetExternalSink});
    k2.declare_port({"w", "wo", PortRecord::kWrite, 0, 0});
    EXPECT_FALSE(has(run_checks(k2), Check::kNeverRead));
}

TEST(LintStatic, MultiWriterFiresWithoutArbitrationFlag) {
    sim::Kernel k;
    k.declare_net({"q", NetRecord::kFifo, 64, 4, 0});
    k.declare_port({"w1", "q", PortRecord::kWrite, 0, 0});
    k.declare_port({"w2", "q", PortRecord::kWrite, 0, 0});
    k.declare_port({"r", "q", PortRecord::kRead, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kMultiWriter, "q"));

    sim::Kernel k2;
    k2.declare_net({"q", NetRecord::kFifo, 64, 4, sim::kNetMultiWriter});
    k2.declare_port({"w1", "q", PortRecord::kWrite, 0, 0});
    k2.declare_port({"w2", "q", PortRecord::kWrite, 0, 0});
    k2.declare_port({"r", "q", PortRecord::kRead, 0, 0});
    EXPECT_FALSE(has(run_checks(k2), Check::kMultiWriter));
}

TEST(LintStatic, MultiReaderFiresWithoutFanoutFlag) {
    sim::Kernel k;
    k.declare_net({"q", NetRecord::kFifo, 64, 4, 0});
    k.declare_port({"w", "q", PortRecord::kWrite, 0, 0});
    k.declare_port({"r1", "q", PortRecord::kRead, 0, 0});
    k.declare_port({"r2", "q", PortRecord::kRead, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kMultiReader, "q"));

    sim::Kernel k2;
    k2.declare_net({"q", NetRecord::kFifo, 64, 4, sim::kNetMultiReader});
    k2.declare_port({"w", "q", PortRecord::kWrite, 0, 0});
    k2.declare_port({"r1", "q", PortRecord::kRead, 0, 0});
    k2.declare_port({"r2", "q", PortRecord::kRead, 0, 0});
    EXPECT_FALSE(has(run_checks(k2), Check::kMultiReader));
}

TEST(LintStatic, WidthMismatchFires) {
    sim::Kernel k;
    k.declare_net({"q", NetRecord::kFifo, 64, 4, 0});
    k.declare_port({"w", "q", PortRecord::kWrite, 32, 0});  // expects 32b
    k.declare_port({"r", "q", PortRecord::kRead, 64, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kWidthMismatch, "q"));
}

TEST(LintStatic, PaperWidthFiresOnWrongBusWidth) {
    // A 128-bit VOQ inside the stage-1 switch contradicts the paper's
    // 512-bit main-switch datapath.
    sim::Kernel k;
    k.declare_net({"fabric.voq.r0.s0", NetRecord::kFifo, 128, 8, 0});
    k.declare_port({"fabric", "fabric.voq.r0.s0", PortRecord::kWrite, 0, 0});
    k.declare_port({"fabric", "fabric.voq.r0.s0", PortRecord::kRead, 0, 0});
    auto vs = lint::check_netlist(k, lint::paper_width_table());
    EXPECT_TRUE(has(vs, Check::kPaperWidth, "fabric.voq.r0.s0")) << lint::report(vs);
}

TEST(LintStatic, PaperWidthFiresOnWrongLinkDepth) {
    // The per-RPU link is a 1-deep 128-bit registered channel.
    sim::Kernel k;
    k.declare_net({"rpu3.link_in", NetRecord::kLink, 128, 2, 0});
    k.declare_port({"fabric", "rpu3.link_in", PortRecord::kWrite, 0, 0});
    k.declare_port({"rpu3", "rpu3.link_in", PortRecord::kRead, 0, 0});
    auto vs = lint::check_netlist(k, lint::paper_width_table());
    EXPECT_TRUE(has(vs, Check::kPaperWidth, "rpu3.link_in")) << lint::report(vs);
}

TEST(LintStatic, ZeroDepthFifoFires) {
    sim::Kernel k;
    k.declare_net({"q", NetRecord::kFifo, 64, 0, 0});
    k.declare_port({"w", "q", PortRecord::kWrite, 0, 0});
    k.declare_port({"r", "q", PortRecord::kRead, 0, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kZeroDepth, "q"));
}

TEST(LintStatic, CreditDepthMismatchFires) {
    // The producer sized its credit counter for 16 slots; the FIFO has 8.
    sim::Kernel k;
    k.declare_net({"q", NetRecord::kFifo, 64, 8, 0});
    k.declare_port({"w", "q", PortRecord::kWrite, 64, 16});
    k.declare_port({"r", "q", PortRecord::kRead, 64, 0});
    EXPECT_TRUE(has(run_checks(k), Check::kCreditDepth, "q"));
}

TEST(LintStatic, ResourceSumFiresOnMismatch) {
    sim::ResourceFootprint child{100, 200, 1, 0, 0};
    sim::ResourceFootprint total = child * 4;
    EXPECT_TRUE(lint::check_resource_sum("top", total, {{"c", child, 4}}).empty());
    total.luts += 1;
    auto vs = lint::check_resource_sum("top", total, {{"c", child, 4}});
    EXPECT_TRUE(has(vs, Check::kResourceSum, "top")) << lint::report(vs);
}

TEST(LintStatic, ResourceFitFiresOnOverflow) {
    sim::ResourceFootprint device{1000, 1000, 10, 10, 10};
    EXPECT_TRUE(lint::check_resource_fit("d", {999, 0, 0, 0, 0}, device).empty());
    auto vs = lint::check_resource_fit("d", {1001, 0, 0, 0, 0}, device);
    EXPECT_TRUE(has(vs, Check::kResourceFit, "d")) << lint::report(vs);
}

TEST(LintStatic, DotDumpRendersComponentsAndNets) {
    sim::Kernel k;
    k.declare_net({"a.q", NetRecord::kFifo, 64, 8, 0});
    k.declare_port({"w", "a.q", PortRecord::kWrite, 64, 8});
    k.declare_port({"r", "a.q", PortRecord::kRead, 0, 0});
    std::string dot = lint::to_dot(k);
    EXPECT_NE(dot.find("digraph netlist"), std::string::npos);
    EXPECT_NE(dot.find("\"w\" -> \"a.q\""), std::string::npos);
    EXPECT_NE(dot.find("\"a.q\" -> \"r\""), std::string::npos);
    EXPECT_NE(dot.find("64b x8"), std::string::npos);
}

// --- dynamic race detector ----------------------------------------------------

/// Minimal component running an injected lambda as its tick.
struct Poker : sim::Component {
    Poker(sim::Kernel& k, std::string name) : Component(k, std::move(name)) {}
    void tick() override {
        if (fn) fn();
    }
    std::function<void()> fn;
};

TEST(LintStatic, WakeEdgeFiresForUnregisteredReader) {
    // "phantom" reads the FIFO but no component with that name exists, so
    // the kernel's wake map cannot route pushes to it: a sleeping reader
    // declared under the wrong name would never wake.
    sim::Kernel k;
    Poker writer(k, "w");
    sim::Fifo<int> f(k, "q", 4, 64);
    k.declare_port({"w", "q", PortRecord::kWrite, 64, 0});
    k.declare_port({"phantom", "q", PortRecord::kRead, 64, 0});
    auto vs = run_checks(k);
    EXPECT_TRUE(has(vs, Check::kWakeEdge, "q")) << lint::report(vs);
}

TEST(LintStatic, WakeEdgeSilentForRegisteredOrExternalReader) {
    // Registered reader: resolvable, no violation.
    sim::Kernel k;
    Poker writer(k, "w"), reader(k, "r");
    sim::Fifo<int> f(k, "q", 4, 64);
    k.declare_port({"w", "q", PortRecord::kWrite, 64, 0});
    k.declare_port({"r", "q", PortRecord::kRead, 64, 0});
    auto vs = run_checks(k);
    EXPECT_FALSE(has(vs, Check::kWakeEdge)) << lint::report(vs);

    // External sink (e.g. the host draining a queue): exempt, like
    // never-read.
    sim::Kernel k2;
    Poker writer2(k2, "w");
    sim::Fifo<int> f2(k2, "out", 4, 64, sim::kNetExternalSink);
    k2.declare_port({"w", "out", PortRecord::kWrite, 64, 0});
    k2.declare_port({"host", "out", PortRecord::kRead, 64, 0});
    auto vs2 = run_checks(k2);
    EXPECT_FALSE(has(vs2, Check::kWakeEdge)) << lint::report(vs2);
}

TEST(RaceDetector, CrossComponentDoubleStageFaults) {
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);
    Poker a(k, "a"), b(k, "b");
    a.fn = [&] { (void)!f.push(1); };
    b.fn = [&] { (void)!f.push(2); };
    EXPECT_THROW(k.step(), sim::FatalError);
}

TEST(RaceDetector, CrossComponentDoublePopFaults) {
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);
    Poker a(k, "a"), b(k, "b");
    (void)!f.push(1);
    (void)!f.push(2);
    k.step();  // commit host-phase pushes
    a.fn = [&] { (void)f.pop(); };
    b.fn = [&] { (void)f.pop(); };
    EXPECT_THROW(k.step(), sim::FatalError);
}

TEST(RaceDetector, ReadAfterSameCyclePopFaults) {
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);
    Poker a(k, "a"), b(k, "b");
    (void)!f.push(1);
    k.step();
    a.fn = [&] { (void)f.pop(); };
    b.fn = [&] { (void)f.empty(); };  // observes the pop: order-dependent
    EXPECT_THROW(k.step(), sim::FatalError);
}

TEST(RaceDetector, SkidBufferCreditReadRacesWithPop) {
    // can_push on a skid-buffer FIFO observes same-cycle pops, so a
    // producer in another component gets a tick-order-dependent answer.
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);  // default kSkidBuffer
    Poker a(k, "a"), b(k, "b");
    (void)!f.push(1);
    k.step();
    a.fn = [&] { (void)f.pop(); };
    b.fn = [&] { (void)f.can_push(); };
    EXPECT_THROW(k.step(), sim::FatalError);
}

TEST(RaceDetector, RegisteredCreditAllowsCrossComponentProducer) {
    // The same pattern is legal under registered credit: can_push ignores
    // same-cycle pops, so the answer is order-independent.
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32, 0, sim::CreditPolicy::kRegistered);
    Poker a(k, "a"), b(k, "b");
    (void)!f.push(1);
    k.step();
    a.fn = [&] { (void)f.pop(); };
    b.fn = [&] {
        if (f.can_push()) (void)!f.push(7);
    };
    EXPECT_NO_THROW(k.step());
    EXPECT_EQ(f.size(), 1u);  // one popped, one pushed
}

TEST(RaceDetector, SameComponentPushAndPopIsLegal) {
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);
    Poker a(k, "a");
    (void)!f.push(1);
    k.step();
    a.fn = [&] {
        (void)f.pop();
        if (f.can_push()) (void)!f.push(2);
    };
    EXPECT_NO_THROW(k.step());
    EXPECT_EQ(f.size(), 1u);
}

TEST(RaceDetector, HostPhaseAccessIsExempt) {
    sim::Kernel k;
    sim::Fifo<int> f(k, "f", 8, 32);
    (void)!f.push(1);
    k.step();
    EXPECT_EQ(f.size(), 1u);
    (void)f.pop();  // host-phase pop, no active component
    EXPECT_NO_THROW(k.step());
}

// --- full-System lint + tick-order determinism --------------------------------

TEST(LintSystem, CleanSystemElaboratesZeroViolations) {
    for (unsigned n : {4u, 8u, 16u}) {
        SystemConfig cfg;
        cfg.rpu_count = n;
        System sys(cfg);
        auto vs = sys.lint_check();
        EXPECT_TRUE(vs.empty()) << n << " RPUs:\n" << lint::report(vs);
    }
}

TEST(LintSystem, HashReassemblerConfigIsAlsoClean) {
    SystemConfig cfg;
    cfg.rpu_count = 8;
    cfg.lb_policy = lb::Policy::kHash;
    cfg.hw_reassembler = true;
    System sys(cfg);
    auto vs = sys.lint_check();
    EXPECT_TRUE(vs.empty()) << lint::report(vs);
}

TEST(LintSystem, EnforceModeFaultsBeforeCycleZeroOnBadNetlist) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    // Sabotage the netlist after elaboration: a port on an undeclared net.
    sys.kernel().declare_port({"rogue", "no.such.net", PortRecord::kRead, 0, 0});
    EXPECT_THROW(sys.run_cycles(1), sim::FatalError);
}

TEST(LintSystem, WarnAndOffModesProceed) {
    for (LintMode mode : {LintMode::kWarn, LintMode::kOff}) {
        SystemConfig cfg;
        cfg.rpu_count = 4;
        cfg.lint = mode;
        System sys(cfg);
        sys.kernel().declare_port({"rogue", "no.such.net", PortRecord::kRead, 0, 0});
        EXPECT_NO_THROW(sys.run_cycles(1));
    }
}

/// Run a small workload and return the architectural-state fingerprint.
/// `shuffle_seed` 0 = default registration order.
uint64_t
run_fingerprint(bool firewall, uint64_t shuffle_seed) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    if (shuffle_seed != 0) sys.kernel().shuffle_tick_order(shuffle_seed);

    sim::Rng rng(42);
    net::Blacklist blacklist;
    fwlib::Program fw;
    if (firewall) {
        blacklist = net::Blacklist::synthesize(32, rng);
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::FirewallMatcher>(blacklist); });
        fw = fwlib::firewall();
    } else {
        fw = fwlib::forwarder();
    }
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();

    net::TrafficSpec tspec;
    tspec.seed = 99;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr,
                                                     firewall ? &blacklist : nullptr);
    dist::TrafficSource::Config src;
    src.port = 0;
    src.load = 0.6;
    src.max_packets = 250;
    sys.add_source(src, [gen] { return gen->next(); });

    sys.run_cycles(30000);
    return sys.state_fingerprint();
}

TEST(TickOrderDeterminism, ForwarderIsBitIdenticalUnderShuffledOrders) {
    const uint64_t base = run_fingerprint(false, 0);
    for (uint64_t seed : {0xdeadbeefull, 42ull, 7777777ull}) {
        EXPECT_EQ(run_fingerprint(false, seed), base) << "seed " << seed;
    }
}

TEST(TickOrderDeterminism, FirewallIsBitIdenticalUnderShuffledOrders) {
    const uint64_t base = run_fingerprint(true, 0);
    for (uint64_t seed : {1ull, 0xabcdefull, 999983ull}) {
        EXPECT_EQ(run_fingerprint(true, seed), base) << "seed " << seed;
    }
}

// --- paper netlist -----------------------------------------------------------

/// Paper configuration plus two attached traffic sources, so the netlist
/// holds the MAC-boundary components too. No cycle ever runs, so the inert
/// generators are never called.
std::unique_ptr<System>
paper_system_with_sources() {
    SystemConfig cfg;
    cfg.rpu_count = 16;
    auto sys = std::make_unique<System>(cfg);
    for (unsigned port = 0; port < 2; ++port) {
        dist::TrafficSource::Config src;
        src.port = port;
        sys->add_source(src, [] { return net::PacketPtr(); });
    }
    return sys;
}

// --- DOT escaping -------------------------------------------------------------

/// Minimal DOT well-formedness check (the container has no `dot` binary):
/// braces and brackets must balance outside quoted strings, every quoted
/// string must terminate on the same line, and the only escapes inside
/// quotes are \" \\ \n \l \r.
bool
dot_well_formed(const std::string& dot, std::string* why) {
    int braces = 0, brackets = 0;
    bool in_quote = false;
    for (size_t i = 0; i < dot.size(); ++i) {
        char c = dot[i];
        if (in_quote) {
            if (c == '\\') {
                char n = i + 1 < dot.size() ? dot[i + 1] : 0;
                if (n != '"' && n != '\\' && n != 'n' && n != 'l' && n != 'r') {
                    *why = "bad escape at offset " + std::to_string(i);
                    return false;
                }
                ++i;
            } else if (c == '"') {
                in_quote = false;
            } else if (c == '\n') {
                *why = "unterminated quote at offset " + std::to_string(i);
                return false;
            }
        } else {
            if (c == '"') in_quote = true;
            if (c == '{') ++braces;
            if (c == '}') --braces;
            if (c == '[') ++brackets;
            if (c == ']') --brackets;
            if (braces < 0 || brackets < 0) {
                *why = "unbalanced close at offset " + std::to_string(i);
                return false;
            }
        }
    }
    if (in_quote) { *why = "unterminated quote at EOF"; return false; }
    if (braces != 0) { *why = "unbalanced braces"; return false; }
    if (brackets != 0) { *why = "unbalanced brackets"; return false; }
    return true;
}

TEST(DotEscape, EscapesQuotesBackslashesAndNewlines) {
    EXPECT_EQ(lint::dot_escape("plain"), "plain");
    EXPECT_EQ(lint::dot_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(lint::dot_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(lint::dot_escape("a\nb"), "a\\nb");
    EXPECT_EQ(lint::dot_escape("a\rb"), "ab");
}

TEST(DotEscape, HostileNamesRoundTripThroughBothDumps) {
    sim::Kernel k;
    // Names with every character class the DOT grammar cares about.
    const std::string net = "evil\"net[0]{x}";
    const std::string writer = "w\\riter";
    const std::string reader = "re\"ad]er";
    k.declare_net({net, NetRecord::kFifo, 64, 8, 0, NetRecord::kCreditRegistered});
    k.declare_port({writer, net, PortRecord::kWrite, 64, 0});
    k.declare_port({reader, net, PortRecord::kRead, 64, 0});

    std::string why;
    std::string netlist_dot = lint::to_dot(k);
    EXPECT_TRUE(dot_well_formed(netlist_dot, &why)) << why << "\n" << netlist_dot;

    // And the real netlist stays well-formed too.
    auto sys = paper_system_with_sources();
    EXPECT_TRUE(dot_well_formed(lint::to_dot(sys->kernel()), &why)) << why;
}

TEST(LintJson, SummarizesNetlistAndViolations) {
    auto sys = paper_system_with_sources();
    auto violations = sys->lint_check();
    std::string json = lint::lint_json(sys->kernel(), violations);
    EXPECT_NE(json.find("\"netlist\":"), std::string::npos);
    EXPECT_NE(json.find("\"nets\":"), std::string::npos);
    EXPECT_NE(json.find("\"violation_count\":0"), std::string::npos);

    sim::Kernel bad;
    bad.declare_net({"orphan", NetRecord::kFifo, 64, 4, 0});
    auto bad_vs = lint::check_netlist(bad, {});
    ASSERT_FALSE(bad_vs.empty());
    std::string bad_json = lint::lint_json(bad, bad_vs);
    EXPECT_NE(bad_json.find("\"violations\":[{"), std::string::npos);
    EXPECT_NE(bad_json.find("orphan"), std::string::npos);
}

TEST(TickOrderDeterminism, ShuffleActuallyPermutesTheOrder) {
    SystemConfig cfg;
    cfg.rpu_count = 8;
    System sys(cfg);
    auto before = sys.kernel().tick_order();
    sys.kernel().shuffle_tick_order(0xdeadbeef);
    auto after = sys.kernel().tick_order();
    ASSERT_EQ(before.size(), after.size());
    EXPECT_NE(before, after);  // astronomically unlikely to be a fixpoint
    auto sb = before, sa = after;
    std::sort(sb.begin(), sb.end());
    std::sort(sa.begin(), sa.end());
    EXPECT_EQ(sb, sa);  // a permutation, not a different set
}

}  // namespace
}  // namespace rosebud
