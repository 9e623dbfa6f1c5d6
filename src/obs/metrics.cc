#include "obs/metrics.h"

#include <cstdio>

#include "sim/kernel.h"
#include "sim/stats.h"

namespace rosebud::obs {

std::string
prom_name(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 1);
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    // Names may not start with a digit; prepend rather than substitute so
    // "9lives" stays recognizable as "_9lives".
    if (out.empty()) out.push_back('_');
    else if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
    return out;
}

std::string
prom_label_value(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

void
MetricsRegistry::add_counter(std::string name, std::string help,
                             std::string labels, IntGetter fn) {
    entries_.push_back({Kind::kCounter, prom_name(name), std::move(help),
                        std::move(labels), std::move(fn), nullptr, 1.0});
}

void
MetricsRegistry::add_gauge(std::string name, std::string help,
                           std::string labels, IntGetter fn) {
    entries_.push_back({Kind::kGauge, prom_name(name), std::move(help),
                        std::move(labels), std::move(fn), nullptr, 1.0});
}

void
MetricsRegistry::add_histogram(std::string name, std::string help,
                               std::string labels, const sim::Histogram* h,
                               double scale) {
    entries_.push_back({Kind::kHistogram, prom_name(name), std::move(help),
                        std::move(labels), IntGetter(), h, scale});
}

namespace {

std::string
fmt_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
prom_series(std::string& out, const std::string& name,
            const std::string& labels, const std::string& value) {
    out += name;
    if (!labels.empty()) {
        out += '{';
        out += labels;
        out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
}

}  // namespace

std::string
MetricsRegistry::prometheus_text() const {
    std::string out;
    out.reserve(4096);
    std::string prev_family;
    for (const Entry& e : entries_) {
        if (e.name != prev_family) {
            out += "# HELP " + e.name + " " + e.help + "\n";
            out += "# TYPE " + e.name + " ";
            out += e.kind == Kind::kCounter
                       ? "counter"
                       : e.kind == Kind::kGauge ? "gauge" : "histogram";
            out += "\n";
            prev_family = e.name;
        }
        if (e.kind == Kind::kHistogram) {
            uint64_t cum = 0;
            const sim::Histogram& h = *e.hist;
            h.for_each_nonzero([&](uint64_t upper, uint64_t n) {
                cum += n;
                std::string l = "le=\"" + fmt_double(double(upper) * e.scale) + "\"";
                if (!e.labels.empty()) l = e.labels + "," + l;
                prom_series(out, e.name + "_bucket", l, std::to_string(cum));
            });
            std::string linf = "le=\"+Inf\"";
            if (!e.labels.empty()) linf = e.labels + "," + linf;
            prom_series(out, e.name + "_bucket", linf, std::to_string(h.count()));
            prom_series(out, e.name + "_sum", e.labels,
                        fmt_double(double(h.sum()) * e.scale));
            prom_series(out, e.name + "_count", e.labels,
                        std::to_string(h.count()));
        } else {
            prom_series(out, e.name, e.labels, std::to_string(e.fn ? e.fn() : 0));
        }
    }
    if (stats_) {
        out += "# HELP rosebud_stat_total Simulator stats-registry counter (paper sec. 4.3 status counters).\n";
        out += "# TYPE rosebud_stat_total counter\n";
        for (const auto& [name, ctr] : stats_->counters()) {
            prom_series(out, "rosebud_stat_total",
                        "name=\"" + prom_label_value(name) + "\"",
                        std::to_string(ctr.get()));
        }
    }
    if (kernel_) {
        out += "# HELP rosebud_net_occupancy Committed occupancy of a registered net (entries).\n";
        out += "# TYPE rosebud_net_occupancy gauge\n";
        for (const auto& p : kernel_->occupancy_probes()) {
            prom_series(out, "rosebud_net_occupancy",
                        "net=\"" + prom_label_value(p.net) + "\"",
                        std::to_string(p.fn()));
        }
        out += "# HELP rosebud_sim_cycles Simulated cycles since reset.\n";
        out += "# TYPE rosebud_sim_cycles gauge\n";
        prom_series(out, "rosebud_sim_cycles", "", std::to_string(kernel_->now()));
        out += "# HELP rosebud_awake_components Components in the kernel's active set.\n";
        out += "# TYPE rosebud_awake_components gauge\n";
        prom_series(out, "rosebud_awake_components", "",
                    std::to_string(kernel_->awake_count()));
    }
    return out;
}

}  // namespace rosebud::obs
