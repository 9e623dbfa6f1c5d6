/// Memory model tests: endianness, sized accessors, block transfers,
/// bounds enforcement, and access latencies.

#include <gtest/gtest.h>

#include "mem/memory.h"

namespace rosebud::mem {
namespace {

TEST(Memory, LittleEndianLayout) {
    Memory m("m", 64);
    m.write32(0, 0x11223344);
    EXPECT_EQ(m.read8(0), 0x44);
    EXPECT_EQ(m.read8(1), 0x33);
    EXPECT_EQ(m.read8(2), 0x22);
    EXPECT_EQ(m.read8(3), 0x11);
    EXPECT_EQ(m.read16(0), 0x3344);
    EXPECT_EQ(m.read16(2), 0x1122);
}

TEST(Memory, SizedWritesCompose) {
    Memory m("m", 64);
    m.write8(0, 0xaa);
    m.write8(1, 0xbb);
    m.write16(2, 0xddcc);
    EXPECT_EQ(m.read32(0), 0xddccbbaau);
}

TEST(Memory, UnalignedAccessWorks) {
    Memory m("m", 64);
    m.write32(1, 0xcafebabe);
    EXPECT_EQ(m.read32(1), 0xcafebabeu);
    EXPECT_EQ(m.read16(3), 0xcafeu);  // bytes [3],[4] = 0xfe, 0xca
}

TEST(Memory, BlockRoundTrip) {
    Memory m("m", 256);
    std::vector<uint8_t> in(100);
    for (size_t i = 0; i < in.size(); ++i) in[i] = uint8_t(i * 3);
    m.write_block(10, in.data(), uint32_t(in.size()));
    std::vector<uint8_t> out(100);
    m.read_block(10, out.data(), uint32_t(out.size()));
    EXPECT_EQ(in, out);
}

// A packet-memory-sized Memory spans many pages: it must read zero before
// any write, and fill(0), which hands the pages back, must zero it again.
TEST(Memory, FillResets) {
    constexpr uint32_t kSize = 1024 * 1024;
    constexpr uint32_t kLast = kSize - 4;
    Memory m("m", kSize);
    EXPECT_EQ(m.read32(0), 0u);
    EXPECT_EQ(m.read32(kLast), 0u);
    m.write32(0, 0xffffffff);
    m.write32(kSize / 2, 0x12345678);
    m.write32(kLast, 0xdeadbeef);
    m.fill(0);
    EXPECT_EQ(m.read32(0), 0u);
    EXPECT_EQ(m.read32(kSize / 2), 0u);
    EXPECT_EQ(m.read32(kLast), 0u);
    m.fill(0xab);
    EXPECT_EQ(m.read32(0), 0xababababu);
    EXPECT_EQ(m.read32(kLast), 0xababababu);
    EXPECT_EQ(m.bytes()[kSize / 2 + 1], 0xab);
    m.fill(0);
    EXPECT_EQ(m.read32(kLast), 0u);
}

using MemoryDeath = Memory;

TEST(Memory, OutOfBoundsPanics) {
    Memory m("m", 16);
    EXPECT_DEATH(m.read32(13), "out-of-bounds");
    EXPECT_DEATH(m.write32(16, 1), "out-of-bounds");
    EXPECT_DEATH(m.read8(16), "out-of-bounds");
    uint8_t buf[8];
    EXPECT_DEATH(m.read_block(12, buf, 8), "out-of-bounds");
}

TEST(Memory, BoundaryAccessesAllowed) {
    Memory m("m", 16);
    m.write32(12, 0x12345678);
    EXPECT_EQ(m.read32(12), 0x12345678u);
    m.write8(15, 0xff);
    EXPECT_EQ(m.read8(15), 0xff);
}

TEST(Latencies, OrderingMatchesArchitecture) {
    // URAM (packet memory) is slower than BRAM; MMIO costs a bus crossing.
    EXPECT_GT(kUramLoadCycles, kBramLoadCycles);
    EXPECT_GT(kMmioLoadCycles, kBramLoadCycles);
    EXPECT_GT(kUramStoreCycles, kBramStoreCycles);
}

}  // namespace
}  // namespace rosebud::mem
