/// \file
/// Value-change-dump writer — renders telemetry signals (net occupancy,
/// per-net flow state) into the standard VCD format so runs can be
/// inspected in GTKWave exactly like an RTL simulation, answering the
/// paper's observation that "FPGA developers frequently debug their
/// designs by looking at simulation waveforms" without leaving the C++
/// model.
///
/// Dotted signal names ("rpu3.rx_fifo.occ") become nested $scope modules.
/// Time is in nanoseconds ($timescale 1 ns); callers convert cycles with
/// sim::cycles_to_ns (4 ns/cycle at the paper's 250 MHz).

#ifndef ROSEBUD_OBS_VCD_H
#define ROSEBUD_OBS_VCD_H

#include <cstdint>
#include <string>
#include <vector>

namespace rosebud::obs {

class VcdWriter {
 public:
    /// Register a signal; returns its handle. `hier_name` is dotted
    /// ("fabric.voq.r0.s0.occ"); the last component is the var name, the
    /// rest become nested scopes. Width 1 renders as a scalar.
    int add_signal(const std::string& hier_name, unsigned width_bits);

    /// Record a value change at `time_ns`. Changes may be recorded out of
    /// (signal) order; rendering sorts by time and drops no-op repeats.
    void change(uint64_t time_ns, int sig, uint64_t value);

    /// Render the complete VCD document (header, scope tree, $dumpvars
    /// with every signal initialized to x, then the change stream).
    std::string str() const;

 private:
    struct Signal {
        std::string path;  ///< full dotted name
        unsigned width;
        std::string id;  ///< base-94 identifier code
    };
    struct Change {
        uint64_t t;
        int sig;
        uint64_t value;
    };

    std::vector<Signal> signals_;
    std::vector<Change> changes_;
};

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_VCD_H
