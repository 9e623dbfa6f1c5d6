/// \file
/// RPU memory models (paper Section 4.1, Figure 3).
///
/// Three memory classes with distinct timing, mirroring the paper's tailored
/// memory architecture:
///  * BRAM-backed instruction/data memories — single-cycle random access,
///    dedicated core port (the second port belongs to the DMA engine);
///  * URAM-backed packet memory — larger, higher latency, pipelined; one
///    port shared between the core (priority) and the DMA engine, the other
///    exclusively for accelerators;
///  * accelerator local memory — both ports owned by accelerators at
///    runtime, DMA may use one only during boot/readback.
///
/// The backing store is a flat byte array on demand-zero pages
/// (sim::Zeroed), so a memory costs only the pages a run touches. Timing
/// is expressed as access-latency constants consumed by the RISC-V core's
/// cost model and per-cycle port bookkeeping managed by the RPU (which
/// ticks the core before the DMA engine, realizing the paper's
/// core-priority arbitration).

#ifndef ROSEBUD_MEM_MEMORY_H
#define ROSEBUD_MEM_MEMORY_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "sim/kernel.h"
#include "sim/log.h"
#include "sim/zeroed.h"

namespace rosebud::mem {

/// Access latencies in cycles, calibrated to the VexRiscv + BRAM/URAM
/// design of the paper (used by rv::Core's instruction cost model).
inline constexpr uint32_t kBramLoadCycles = 2;   ///< core load from BRAM
inline constexpr uint32_t kBramStoreCycles = 1;  ///< store is fire-and-forget
inline constexpr uint32_t kUramLoadCycles = 4;   ///< URAM pipeline depth
inline constexpr uint32_t kUramStoreCycles = 2;
inline constexpr uint32_t kMmioLoadCycles = 3;   ///< cross-region MMIO read
inline constexpr uint32_t kMmioStoreCycles = 2;

/// Flat little-endian byte-addressable memory with bounds checking.
class Memory {
 public:
    Memory(std::string name, uint32_t size_bytes)
        : name_(std::move(name)), bytes_(size_bytes) {}

    uint32_t size() const { return uint32_t(bytes_.size()); }
    const std::string& name() const { return name_; }

    uint8_t read8(uint32_t addr) const {
        check(addr, 1);
        return bytes_[addr];
    }

    uint16_t read16(uint32_t addr) const {
        check(addr, 2);
        return uint16_t(bytes_[addr]) | uint16_t(bytes_[addr + 1]) << 8;
    }

    uint32_t read32(uint32_t addr) const {
        check(addr, 4);
        uint32_t v;
        std::memcpy(&v, &bytes_[addr], 4);
        return v;
    }

    void write8(uint32_t addr, uint8_t v) {
        check(addr, 1);
        bytes_[addr] = v;
    }

    void write16(uint32_t addr, uint16_t v) {
        check(addr, 2);
        bytes_[addr] = uint8_t(v);
        bytes_[addr + 1] = uint8_t(v >> 8);
    }

    void write32(uint32_t addr, uint32_t v) {
        check(addr, 4);
        std::memcpy(&bytes_[addr], &v, 4);
    }

    /// Bulk copy in (DMA, host loads). Bounds-checked.
    void write_block(uint32_t addr, const uint8_t* src, uint32_t len) {
        check(addr, len);
        std::memcpy(&bytes_[addr], src, len);
    }

    /// Bulk copy out (DMA, host readback). Bounds-checked.
    void read_block(uint32_t addr, uint8_t* dst, uint32_t len) const {
        check(addr, len);
        std::memcpy(dst, &bytes_[addr], len);
    }

    /// Set every byte to `v`; fill(0) hands the pages back instead of
    /// writing them.
    void fill(uint8_t v) {
        if (v == 0) {
            bytes_.zero();
        } else {
            std::memset(bytes_.data(), v, bytes_.size());
        }
    }

    std::span<const uint8_t> bytes() const { return bytes_.span(); }

    /// Record this memory in the elaboration netlist as a `width`-bit port
    /// owned (read+written) by `component` — memories are component-local,
    /// so both endpoints belong to the owner.
    void declare_ports(sim::Kernel& kernel, const std::string& component,
                       unsigned width_bits = 32) const {
        kernel.declare_net({name_, sim::NetRecord::kLink, width_bits, 1, 0});
        kernel.declare_port({component, name_, sim::PortRecord::kWrite, width_bits, 1});
        kernel.declare_port({component, name_, sim::PortRecord::kRead, width_bits, 1});
    }

 private:
    void check(uint32_t addr, uint32_t len) const {
        if (uint64_t(addr) + len > bytes_.size()) {
            sim::panic(name_ + ": out-of-bounds access at 0x" + std::to_string(addr) +
                       " len " + std::to_string(len));
        }
    }

    std::string name_;
    sim::Zeroed<uint8_t> bytes_;
};

}  // namespace rosebud::mem

#endif  // ROSEBUD_MEM_MEMORY_H
