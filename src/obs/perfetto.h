/// \file
/// Chrome-trace / Perfetto JSON exporter. Renders the packet lifecycles a
/// FlightRecorder holds as async spans (one track per packet id, one span
/// per pipeline stage crossed) and the Telemetry epoch series as counter
/// tracks (per-component busy fraction), producing a `trace.json` loadable
/// in ui.perfetto.dev or chrome://tracing. Timestamps are microseconds of
/// simulated time (cycle x 4 ns at 250 MHz).

#ifndef ROSEBUD_OBS_PERFETTO_H
#define ROSEBUD_OBS_PERFETTO_H

#include <cstddef>
#include <string>

namespace rosebud::obs {

class FlightRecorder;
class Telemetry;

/// Serialize up to `max_packets` packet lifecycles (lowest ids first) and,
/// when `telem` is non-null, its utilization epochs. Returns the complete
/// JSON document ({"traceEvents": [...]}).
std::string trace_json(const FlightRecorder& rec, const Telemetry* telem = nullptr,
                       size_t max_packets = 4096);

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_PERFETTO_H
