/// Google-benchmark microbenchmarks of the substrates themselves (host
/// machine performance, not simulated time): pattern-matching throughput,
/// flow hashing, the RISC-V interpreter, and whole-system simulation rate.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/flow.h"
#include "net/patmatch.h"
#include "net/rules.h"
#include "net/tracegen.h"
#include "rv/assembler.h"
#include "rv/core.h"

using namespace rosebud;

namespace {

/// Args: rule count, payload bytes. 64 B payloads take the serial scan,
/// 1500 B ones the interleaved one (texts of 256 B and up).
void
BM_AhoCorasickScan(benchmark::State& state) {
    sim::Rng rng(1);
    auto rules = net::IdsRuleSet::synthesize(size_t(state.range(0)), rng);
    net::AhoCorasick ac;
    for (size_t i = 0; i < rules.size(); ++i) {
        ac.add_pattern(rules.at(i).fast_pattern().bytes, uint32_t(i));
    }
    ac.finalize();
    std::vector<uint8_t> payload(size_t(state.range(1)));
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(rng.next());
    std::vector<net::PatternMatch> out;
    for (auto _ : state) {
        out.clear();
        benchmark::DoNotOptimize(ac.scan(payload.data(), payload.size(), out));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(payload.size()));
}
BENCHMARK(BM_AhoCorasickScan)->ArgsProduct({{16, 64, 256}, {64, 1500}});

void
BM_FlowHash(benchmark::State& state) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001, 0x0a000002).tcp(1000, 2000).frame_size(64);
    auto p = b.build();
    for (auto _ : state) benchmark::DoNotOptimize(net::packet_flow_hash(*p));
}
BENCHMARK(BM_FlowHash);

void
BM_Crc32c(benchmark::State& state) {
    std::vector<uint8_t> data(size_t(state.range(0)), 0xa5);
    for (auto _ : state) benchmark::DoNotOptimize(net::crc32c(data.data(), data.size()));
    state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1500);

void
BM_RiscvInterpreter(benchmark::State& state) {
    // Tight ALU loop: measures simulated instructions per host second.
    class NullBus : public rv::Bus {
        Access load(uint32_t, uint32_t) override { return {}; }
        Access store(uint32_t, uint32_t, uint32_t) override { return {}; }
        uint32_t fetch(uint32_t addr) override { return code[(addr / 4) % code.size()]; }

     public:
        std::vector<uint32_t> code;
    } bus;
    rv::Assembler a;
    a.label("loop");
    a.addi(rv::t0, rv::t0, 1);
    a.xor_(rv::t1, rv::t1, rv::t0);
    a.slli(rv::t2, rv::t1, 3);
    a.j("loop");
    bus.code = a.assemble();
    rv::Core core("bench", bus);
    core.reset(0);
    for (auto _ : state) core.tick();
    state.SetItemsProcessed(int64_t(core.instret()));
}
BENCHMARK(BM_RiscvInterpreter);

void
BM_PacketParse(benchmark::State& state) {
    net::PacketBuilder b;
    b.ipv4(1, 2).tcp(3, 4).frame_size(uint32_t(state.range(0)));
    auto p = b.build();
    for (auto _ : state) benchmark::DoNotOptimize(net::parse_packet(*p));
}
BENCHMARK(BM_PacketParse)->Arg(64)->Arg(1500);

void
BM_FullSystemCyclesPerSecond(benchmark::State& state) {
    SystemConfig cfg;
    cfg.rpu_count = unsigned(state.range(0));
    System sys(cfg);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    auto gen = [proto = net::PacketBuilder()
                            .ipv4(0x0a000001, 0x0a000002)
                            .udp(1, 2)
                            .frame_size(512)
                            .build()]() { return std::make_shared<net::Packet>(*proto); };
    sys.add_source({.port = 0, .load = 1.0}, gen);
    sys.add_source({.port = 1, .load = 1.0}, gen);
    for (auto _ : state) sys.run_cycles(1);
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.counters["sim_MHz_per_s"] = benchmark::Counter(
        double(state.iterations()) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSystemCyclesPerSecond)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
