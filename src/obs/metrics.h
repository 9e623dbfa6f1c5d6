/// \file
/// Metrics registry — the export surface of the production health layer
/// (DESIGN.md §14): named counters/gauges/histograms registered by the
/// subsystems (fabric/LB/RPU/host counters arrive via the sim::Stats
/// mirror; the health layer adds its own gauges and sim::Histogram
/// latency distributions), exported as a Prometheus text exposition
/// snapshot.
///
/// Registration happens at attach/elaboration time (cold path, may
/// allocate); export is host-phase only. Nothing here touches sim::Stats
/// *creation* — the registry only reads — so attaching never perturbs
/// System::state_fingerprint.

#ifndef ROSEBUD_OBS_METRICS_H
#define ROSEBUD_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rosebud::sim {
class Histogram;
class Kernel;
class Stats;
}  // namespace rosebud::sim

namespace rosebud::obs {

/// Sanitize a dotted/system name into a legal Prometheus metric name
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): every illegal character becomes '_'.
std::string prom_name(const std::string& s);

/// Escape a Prometheus label value (backslash, quote, newline).
std::string prom_label_value(const std::string& s);

/// Named registry of exportable metrics. Not thread safe; registration and
/// export are host-phase operations.
class MetricsRegistry {
 public:
    using IntGetter = std::function<uint64_t()>;

    /// Register a monotonically increasing counter. `labels` is the inner
    /// text of the label set (e.g. `cls="tcp"`), already escaped via
    /// prom_label_value; empty for none. Series of one family (same name)
    /// should be registered consecutively.
    void add_counter(std::string name, std::string help, std::string labels,
                     IntGetter fn);

    /// Register a point-in-time gauge.
    void add_gauge(std::string name, std::string help, std::string labels,
                   IntGetter fn);

    /// Register a histogram. `scale` converts recorded units to the
    /// exported unit (e.g. cycles -> microseconds) in le/sum values.
    void add_histogram(std::string name, std::string help, std::string labels,
                       const sim::Histogram* h, double scale = 1.0);

    /// Mirror every counter of the stats registry on export (the
    /// fabric/LB/RPU/host counters of paper §4.3), as
    /// rosebud_stat_total{name="..."}.
    void set_stats(const sim::Stats* stats) { stats_ = stats; }

    /// Export the kernel's occupancy probes as per-net backlog gauges
    /// (rosebud_net_occupancy) and the active-set / cycle gauges.
    void set_kernel(const sim::Kernel* kernel) { kernel_ = kernel; }

    /// Point-in-time snapshot in Prometheus text exposition format
    /// (version 0.0.4).
    std::string prometheus_text() const;

    size_t size() const { return entries_.size(); }

 private:
    enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

    struct Entry {
        Kind kind;
        std::string name;    ///< already a legal Prometheus name
        std::string help;
        std::string labels;  ///< inner label text, may be empty
        IntGetter fn;        ///< counters/gauges
        const sim::Histogram* hist = nullptr;
        double scale = 1.0;
    };

    std::vector<Entry> entries_;
    const sim::Stats* stats_ = nullptr;
    const sim::Kernel* kernel_ = nullptr;
};

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_METRICS_H
