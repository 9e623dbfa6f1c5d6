/// Tests for the pcap interchange format and the per-packet lifecycle
/// timelines a flight recorder attached to a System holds.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/system.h"
#include "accel/firewall.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "net/pcap.h"
#include "net/tracegen.h"
#include "obs/recorder.h"

namespace rosebud {
namespace {

TEST(Pcap, SerializeParseRoundTrip) {
    std::vector<net::PcapRecord> records;
    for (int i = 0; i < 5; ++i) {
        net::PcapRecord rec;
        rec.ts_ns = 1e9 + i * 1000.0;
        rec.data.assign(size_t(64 + i), uint8_t(i));
        records.push_back(rec);
    }
    auto parsed = net::pcap_parse(net::pcap_serialize(records));
    ASSERT_EQ(parsed.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(parsed[i].data, records[i].data);
        EXPECT_DOUBLE_EQ(parsed[i].ts_ns, records[i].ts_ns);
    }
}

TEST(Pcap, HeaderIsWellFormed) {
    auto bytes = net::pcap_serialize({});
    ASSERT_EQ(bytes.size(), 24u);  // global header only
    uint32_t magic;
    std::memcpy(&magic, bytes.data(), 4);
    EXPECT_EQ(magic, 0xa1b23c4du);  // nanosecond pcap
    uint32_t linktype;
    std::memcpy(&linktype, bytes.data() + 20, 4);
    EXPECT_EQ(linktype, 1u);  // Ethernet
}

TEST(Pcap, RejectsGarbage) {
    std::vector<uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(net::pcap_parse(garbage), sim::FatalError);
    std::vector<uint8_t> truncated = net::pcap_serialize({{0, {1, 2, 3}}});
    truncated.pop_back();
    EXPECT_THROW(net::pcap_parse(truncated), sim::FatalError);
}

TEST(Pcap, MicrosecondVariantParses) {
    auto bytes = net::pcap_serialize({{2.5e9, {0xaa, 0xbb}}});
    // Patch the magic to the classic microsecond format and scale the
    // fractional field by hand (ns field / 1000).
    bytes[0] = 0xd4;
    bytes[1] = 0xc3;
    bytes[2] = 0xb2;
    bytes[3] = 0xa1;
    uint32_t frac;
    std::memcpy(&frac, bytes.data() + 24 + 4, 4);
    frac /= 1000;
    std::memcpy(bytes.data() + 24 + 4, &frac, 4);
    auto parsed = net::pcap_parse(bytes);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed[0].ts_ns, 2.5e9);
}

TEST(Pcap, FileRoundTripThroughGenerator) {
    net::TrafficSpec spec;
    spec.packet_size = 256;
    spec.seed = 12;
    net::TraceGenerator gen(spec);
    auto packets = gen.make(20);
    for (size_t i = 0; i < packets.size(); ++i) packets[i]->tx_ns = double(i) * 100;

    std::string path = testing::TempDir() + "/rosebud_test.pcap";
    net::pcap_write_file(path, packets);
    auto loaded = net::pcap_read_file(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
        EXPECT_EQ(loaded[i]->data, packets[i]->data);
        EXPECT_DOUBLE_EQ(loaded[i]->tx_ns, packets[i]->tx_ns);
    }
    // Replayed packets still parse as proper frames.
    for (const auto& p : loaded) EXPECT_TRUE(net::parse_packet(*p).has_value());
}

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
