/// Quickstart: bring up a 4-RPU Rosebud instance, load the forwarder
/// firmware on every RISC-V core, push a few packets through the 100G
/// ports, and read the status counters — the whole paper Section 3.2
/// workflow in ~50 lines.
///
///   $ ./examples/quickstart

#include <cstdio>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/headers.h"

using namespace rosebud;

int
main() {
    // 1. Build the system: RPUs, load balancer, distribution fabric, host.
    SystemConfig cfg;
    cfg.rpu_count = 4;
    System sys(cfg);

    // 2. Load and boot firmware (the paper's `make do TEST=basic_fw`).
    fwlib::Program fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_us(2.0);  // let firmware announce its packet slots to the LB

    for (unsigned i = 0; i < sys.rpu_count(); ++i) {
        std::printf("rpu%u: booted, %u packet slots of %u B\n", i,
                    sys.rpu(i).slot_config().count, sys.rpu(i).slot_config().size);
    }

    // 3. Send traffic into port 0; the forwarder swaps it to port 1.
    for (int i = 0; i < 10; ++i) {
        net::PacketBuilder b;
        b.ipv4(net::parse_ipv4_addr("10.0.0.1"), net::parse_ipv4_addr("10.0.0.2"))
            .udp(1000, 2000)
            .payload_str("hello rosebud #" + std::to_string(i))
            .frame_size(128);
        net::PacketPtr pkt = b.build();
        pkt->tx_ns = sys.kernel().now_ns();  // send time, for the round trip
        sys.fabric().mac_rx(0, std::move(pkt));
        sys.run_us(1.0);
    }
    sys.run_us(10.0);

    // 4. Read the host-visible counters (paper Section 4.3).
    std::printf("\ncounters:\n");
    for (const char* name : {"port0.rx_frames", "port1.tx_frames", "lb.assigned"}) {
        std::printf("  %-18s %llu\n", name,
                    (unsigned long long)sys.host().counter(name));
    }
    std::printf("  round-trip latency: %.2f us mean\n",
                sys.sink(1).latency().mean() / 1e6);
    std::printf("\nforwarded %llu/%u packets out of port 1 — quickstart OK\n",
                (unsigned long long)sys.sink(1).frames(), 10);
    return sys.sink(1).frames() == 10 ? 0 : 1;
}
