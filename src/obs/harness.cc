#include "obs/harness.h"

#include "obs/perfetto.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"

namespace rosebud::obs {

ProfileResult
run_profile(const ProfileSpec& spec) {
    PipelineFixture fx = build_pipeline(spec.build);
    System& sys = fx.system();

    // The full observability stack, attached before the first cycle so the
    // per-net cycle classification covers the entire run.
    Telemetry::Config tcfg;
    tcfg.epoch_cycles = spec.epoch_cycles;
    tcfg.capture_vcd = spec.capture_vcd;
    Telemetry telem(tcfg);
    telem.attach(sys);

    FlightRecorder rec(spec.trace_max_packets * net::kStageCount);
    rec.attach(sys);

    for (unsigned i = 0; i < sys.rpu_count(); ++i) sys.rpu(i).core().set_profile(true);

    TrafficParams traffic = spec.traffic;
    traffic.seed = spec.build.seed;
    add_traffic(fx, traffic);

    sys.run_cycles(spec.run_cycles);

    ProfileResult res;
    res.cycles = telem.cycles_observed();
    res.stalls = build_stall_report(telem);
    res.cores = collect_profiles(sys);
    res.aggregate = aggregate_profiles(res.cores);
    res.firmware = fx.firmware;
    res.trace = trace_json(rec, &telem, spec.trace_max_packets);
    if (spec.capture_vcd) res.vcd = telem.vcd().str();
    for (unsigned p = 0; p < 2; ++p) {
        res.rx_frames += sys.sink(p).frames();
        res.rx_bytes += sys.sink(p).bytes();
    }
    telem.detach();
    return res;
}

}  // namespace rosebud::obs
