/// Tests for the per-packet lifecycle timelines a flight recorder attached
/// to a System holds.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.h"
#include "accel/firewall.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "obs/recorder.h"

namespace rosebud {
namespace {

TEST(Tracer, RecordsFullPacketLifecycle) {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    obs::FlightRecorder rec;
    rec.attach(sys);

    net::PacketBuilder b;
    b.ipv4(1, 2).udp(3, 4).frame_size(200);
    auto p = b.build();
    p->id = 42;
    ASSERT_TRUE(sys.fabric().mac_rx(0, p));
    sys.run_cycles(2000);

    const auto tl = rec.timeline(42);
    ASSERT_GE(tl.size(), 6u);
    std::vector<net::Stage> stages;
    for (const auto& e : tl) stages.push_back(e.stage);
    // The canonical path, in order.
    auto idx = [&](net::Stage s) {
        return std::find(stages.begin(), stages.end(), s) - stages.begin();
    };
    EXPECT_LT(idx(net::Stage::kMacRx), idx(net::Stage::kLbAssign));
    EXPECT_LT(idx(net::Stage::kLbAssign), idx(net::Stage::kRpuLinkDispatch));
    EXPECT_LT(idx(net::Stage::kRpuLinkDispatch), idx(net::Stage::kRpuRxComplete));
    EXPECT_LT(idx(net::Stage::kRpuRxComplete), idx(net::Stage::kFwSend));
    EXPECT_LT(idx(net::Stage::kFwSend), idx(net::Stage::kMacTx));
    EXPECT_LT(idx(net::Stage::kMacTx), std::ptrdiff_t(stages.size()));
    // Cycles are monotone.
    for (size_t i = 1; i < tl.size(); ++i) EXPECT_GE(tl[i].cycle, tl[i - 1].cycle);
    EXPECT_GT(tl.back().cycle - tl.front().cycle, 100u);  // ~0.8 us RTT

    std::string text = rec.format_timeline(42);
    EXPECT_NE(text.find("mac_tx"), std::string::npos);
    EXPECT_NE(text.find("packet 42"), std::string::npos);
}

TEST(Tracer, DropsAreVisible) {
    // Firewall drop shows up as fw_drop, and the packet never hits mac_tx.
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);
    sim::Rng rng(5);
    auto bl = net::Blacklist::parse("66.0.0.1\n");
    sys.attach_accelerators([&] { return std::make_unique<accel::FirewallMatcher>(bl); });
    auto fw = fwlib::firewall();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(300);

    obs::FlightRecorder rec;
    rec.attach(sys);
    net::PacketBuilder b;
    b.ipv4(net::parse_ipv4_addr("66.0.0.1"), 2).tcp(1, 2).frame_size(128);
    auto p = b.build();
    p->id = 7;
    ASSERT_TRUE(sys.fabric().mac_rx(0, p));
    sys.run_cycles(2000);

    std::vector<net::Stage> stages;
    for (const auto& e : rec.timeline(7)) stages.push_back(e.stage);
    EXPECT_NE(std::find(stages.begin(), stages.end(), net::Stage::kFwDrop), stages.end());
    EXPECT_EQ(std::find(stages.begin(), stages.end(), net::Stage::kMacTx), stages.end());
}

TEST(Tracer, UnknownPacketHasEmptyTimeline) {
    obs::FlightRecorder rec;
    EXPECT_TRUE(rec.timeline(999).empty());
    EXPECT_NE(rec.format_timeline(999).find("no events"), std::string::npos);
}

}  // namespace
}  // namespace rosebud
