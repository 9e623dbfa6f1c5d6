/// A tour of Rosebud's software-like debugging features (paper Section
/// 3.4): write custom firmware with the assembler eDSL, disassemble what
/// is loaded, spin-wait on a breakpoint-style condition, poke the core
/// from the host, dump RPU memory, and read the 64-bit debug channel.
///
///   $ ./examples/debug_tour

#include <cstdio>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "obs/recorder.h"
#include "rpu/descriptor.h"
#include "rv/assembler.h"
#include "rv/disasm.h"

using namespace rosebud;
using namespace rosebud::rv;

int
main() {
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);

    // Custom firmware, written inline with the assembler eDSL: compute a
    // checksum over a table in packet memory, publish it on the debug
    // channel, then spin-wait for a host poke ("breakpoint").
    Assembler a;
    a.lui(gp, 0x2000);       // interconnect registers
    a.li(t0, 0x30);
    a.sw(t0, rpu::kRegIrqMask, gp);
    a.lui(s2, 0x1000);       // packet memory base
    a.li(t1, 0);             // accumulator
    a.li(t2, 16);            // words to sum
    a.label("sum");
    a.lw(t3, 0, s2);
    a.add(t1, t1, t3);
    a.addi(s2, s2, 4);
    a.addi(t2, t2, -1);
    a.bnez(t2, "sum");
    a.sw(t1, rpu::kRegDebugLow, gp);   // publish the checksum
    a.rdcycle(t4);
    a.sw(t4, rpu::kRegDebugHigh, gp);  // and when it finished
    a.label("breakpoint");             // spin-wait for the host
    a.lw(t5, rpu::kRegIrqStatus, gp);
    a.beqz(t5, "breakpoint");
    a.ebreak();
    auto image = a.assemble();

    std::printf("--- disassembly of the loaded firmware ---\n%s\n",
                disassemble_image(image).c_str());

    // Host pre-loads a table into the RPU's packet memory (the same path
    // that fills Pigasus's URAM rule tables at runtime).
    std::vector<uint8_t> table;
    uint32_t expected = 0;
    for (uint32_t i = 0; i < 16; ++i) {
        uint32_t v = 0x1000 + i * 3;
        expected += v;
        for (int b = 0; b < 4; ++b) table.push_back(uint8_t(v >> (8 * b)));
    }
    sys.host().write_memory(0, rpu::kPmemBase, table);

    sys.host().load_firmware(0, image);
    sys.host().boot(0);
    sys.run_us(1.0);

    std::printf("firmware checksum on debug channel: 0x%x (expected 0x%x) %s\n",
                sys.host().debug_low(0), expected,
                sys.host().debug_low(0) == expected ? "OK" : "BAD");
    std::printf("computed at core cycle %u; core is now spin-waiting (pc=0x%x)\n",
                sys.host().debug_high(0), sys.rpu(0).core().pc());

    // Dump the RPU's memory from the host, like the paper's state dumps.
    auto dump = sys.host().read_memory(0, rpu::kPmemBase, 16);
    std::printf("memory dump of PMEM[0..16): ");
    for (uint8_t b : dump) std::printf("%02x ", b);
    std::printf("\n");

    // Release the "breakpoint" with a poke interrupt.
    std::printf("poking the core...\n");
    sys.host().poke(0);
    sys.run_us(1.0);
    std::printf("core halted cleanly: %s (executed %llu instructions)\n",
                sys.rpu(0).core_halted() ? "yes" : "no",
                (unsigned long long)sys.rpu(0).core().instret());

    // Finally: per-packet lifecycle tracing — the simulator's waveform
    // replacement. Trace one packet through a fresh forwarding system.
    std::printf("\n--- packet lifecycle trace ---\n");
    SystemConfig cfg2;
    cfg2.rpu_count = 4;
    System fwd(cfg2);
    auto fw_img = fwlib::forwarder();
    fwd.host().load_firmware_all(fw_img.image, fw_img.entry);
    fwd.host().boot_all();
    fwd.run_us(2.0);
    obs::FlightRecorder recorder;
    recorder.attach(fwd);
    net::PacketBuilder pb;
    pb.ipv4(net::parse_ipv4_addr("10.0.0.1"), net::parse_ipv4_addr("10.0.0.2"))
        .udp(1, 2)
        .frame_size(512);
    auto traced = pb.build();
    traced->id = 1;
    fwd.fabric().mac_rx(0, traced);
    fwd.run_us(5.0);
    std::printf("%s", recorder.format_timeline(1).c_str());

    return sys.rpu(0).core_halted() ? 0 : 1;
}
