#include "lint/netlist.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace rosebud::lint {

using sim::NetRecord;
using sim::PortRecord;

const char*
check_name(Check c) {
    switch (c) {
        case Check::kUnknownNet: return "unknown-net";
        case Check::kDangling: return "dangling";
        case Check::kNeverWritten: return "never-written";
        case Check::kNeverRead: return "never-read";
        case Check::kMultiWriter: return "multi-writer";
        case Check::kMultiReader: return "multi-reader";
        case Check::kWidthMismatch: return "width-mismatch";
        case Check::kPaperWidth: return "paper-width";
        case Check::kZeroDepth: return "zero-depth";
        case Check::kCreditDepth: return "credit-depth";
        case Check::kResourceSum: return "resource-sum";
        case Check::kResourceFit: return "resource-fit";
        case Check::kWakeEdge: return "wake-edge";
    }
    return "?";
}

std::vector<WidthRule>
paper_width_table() {
    // Datapath widths from the paper: the stage-1 switch and MAC run a
    // 512-bit bus at 250 MHz (Section 5), each RPU hangs off a 128-bit
    // link (Section 4.1), and descriptors / broadcast messages are 64-bit
    // words (Section 4.3).
    return {
        {"fabric.voq.", "", 512, 0},
        {"fabric.mac_rx.", "", 512, 0},
        {"fabric.mac_tx.", "", 512, 0},
        {"fabric.host_q", "", 512, 0},
        {"fabric.host_out", "", 512, 0},
        {"fabric.loopback_q", "", 512, 0},
        {"fabric.egress.", "", 128, 0},
        {"rpu", ".link_in", 128, 1},
        {"rpu", ".rx_fifo", 64, 0},
        {"rpu", ".tx_fifo", 64, 0},
        {"rpu", ".bcast_notify", 64, 0},
        {"rpu", ".bcast_in", 64, 1},
        {"broadcast.tx", "", 64, 0},
        {"lb.ctrl.", "", 64, 1},
        {"lb.resp.", "", 64, 1},
    };
}

namespace {

bool
matches(const WidthRule& r, const std::string& name) {
    if (name.size() < r.prefix.size() + r.suffix.size()) return false;
    if (name.compare(0, r.prefix.size(), r.prefix) != 0) return false;
    return name.compare(name.size() - r.suffix.size(), r.suffix.size(),
                        r.suffix) == 0;
}

std::string
fp_diff(const sim::ResourceFootprint& a, const sim::ResourceFootprint& b) {
    std::ostringstream os;
    auto col = [&](const char* n, uint64_t x, uint64_t y) {
        if (x != y) os << " " << n << " " << x << " != " << y;
    };
    col("luts", a.luts, b.luts);
    col("regs", a.regs, b.regs);
    col("bram", a.bram, b.bram);
    col("uram", a.uram, b.uram);
    col("dsp", a.dsp, b.dsp);
    return os.str();
}

}  // namespace

std::vector<Violation>
check_netlist(const sim::Kernel& kernel, const std::vector<WidthRule>& rules) {
    std::vector<Violation> out;
    const auto& nets = kernel.nets();

    // Registered component names: the kernel builds its quiescence
    // wake-edge map by resolving each read port's component against this
    // set, silently skipping misses (legitimate for external readers).
    std::set<std::string> registered;
    for (const std::string& c : kernel.tick_order()) registered.insert(c);

    // Group ports by net (one list per NetId); flag references to
    // undeclared nets.
    std::vector<std::vector<const PortRecord*>> net_ports(nets.size());
    for (const PortRecord& p : kernel.ports()) {
        const sim::NetId id = kernel.net_id(p.net);
        if (id == sim::kNoNet) {
            out.push_back({Check::kUnknownNet, p.net,
                           "port '" + p.component + "' references undeclared net '" +
                               p.net + "'"});
            continue;
        }
        net_ports[id].push_back(&p);
    }

    for (sim::NetId id = 0; id < nets.size(); ++id) {
        const NetRecord& n = nets[id];
        const auto& nps = net_ports[id];

        if (nps.empty()) {
            out.push_back({Check::kDangling, n.name,
                           "net '" + n.name + "' has no ports"});
            continue;
        }

        std::set<std::string> writers, readers;
        for (const PortRecord* p : nps) {
            (p->dir == PortRecord::kWrite ? writers : readers)
                .insert(p->component);

            if (p->width_bits != 0 && n.width_bits != 0 &&
                p->width_bits != n.width_bits) {
                out.push_back({Check::kWidthMismatch, n.name,
                               "port '" + p->component + "' expects " +
                                   std::to_string(p->width_bits) + "b on net '" +
                                   n.name + "' (" +
                                   std::to_string(n.width_bits) + "b)"});
            }
            if (p->depth != 0 && n.depth != 0 && p->depth != n.depth) {
                out.push_back({Check::kCreditDepth, n.name,
                               "port '" + p->component + "' credits depth " +
                                   std::to_string(p->depth) + " on net '" +
                                   n.name + "' (depth " +
                                   std::to_string(n.depth) + ")"});
            }
            // Wake-edge validity: a FIFO net's reader must be a registered
            // component, or pushes cannot wake it from quiescence (the
            // kernel drops unresolvable read ports when building the wake
            // map). Scoped to kFifo nets — only Fifo::push routes wakes
            // through the map; kLink nets are callback boundaries whose
            // producers wake consumers by direct wake() calls. External
            // drains are exempt via the same flag that exempts them from
            // never-read.
            if (n.kind == NetRecord::kFifo && !registered.empty() &&
                p->dir == PortRecord::kRead &&
                !(n.flags & sim::kNetExternalSink) &&
                !registered.count(p->component)) {
                out.push_back({Check::kWakeEdge, n.name,
                               "read port on '" + n.name + "' names '" +
                                   p->component +
                                   "', which is not a registered component: "
                                   "pushes cannot wake a sleeping reader"});
            }
        }

        if (writers.empty() && !(n.flags & sim::kNetExternalSource)) {
            out.push_back({Check::kNeverWritten, n.name,
                           "net '" + n.name + "' is read but never written"});
        }
        if (readers.empty() && !(n.flags & sim::kNetExternalSink)) {
            out.push_back({Check::kNeverRead, n.name,
                           "net '" + n.name + "' is written but never read"});
        }
        if (writers.size() > 1 && !(n.flags & sim::kNetMultiWriter)) {
            std::string who;
            for (const auto& w : writers) who += (who.empty() ? "" : ", ") + w;
            out.push_back({Check::kMultiWriter, n.name,
                           "net '" + n.name + "' has " +
                               std::to_string(writers.size()) +
                               " writers without multi-writer arbitration: " + who});
        }
        if (readers.size() > 1 && !(n.flags & sim::kNetMultiReader)) {
            std::string who;
            for (const auto& r : readers) who += (who.empty() ? "" : ", ") + r;
            out.push_back({Check::kMultiReader, n.name,
                           "net '" + n.name + "' has " +
                               std::to_string(readers.size()) +
                               " readers without fan-out declaration: " + who});
        }
        if (n.kind == NetRecord::kFifo && n.depth == 0) {
            out.push_back({Check::kZeroDepth, n.name,
                           "fifo net '" + n.name + "' has zero depth"});
        }

        for (const WidthRule& r : rules) {
            if (!matches(r, n.name)) continue;
            if (n.width_bits != r.width_bits) {
                out.push_back({Check::kPaperWidth, n.name,
                               "net '" + n.name + "' is " +
                                   std::to_string(n.width_bits) +
                                   "b; paper bus table requires " +
                                   std::to_string(r.width_bits) + "b"});
            }
            if (r.depth != 0 && n.depth != r.depth) {
                out.push_back({Check::kPaperWidth, n.name,
                               "net '" + n.name + "' has depth " +
                                   std::to_string(n.depth) +
                                   "; paper bus table requires " +
                                   std::to_string(r.depth)});
            }
            break;  // first matching rule wins
        }
    }

    return out;
}

std::vector<Violation>
check_resource_sum(const std::string& parent, const sim::ResourceFootprint& total,
                   const std::vector<ResourceItem>& children) {
    sim::ResourceFootprint sum;
    for (const ResourceItem& c : children) sum += c.fp * c.count;
    if (sum == total) return {};
    return {{Check::kResourceSum, parent,
             "children of '" + parent + "' do not sum to its footprint:" +
                 fp_diff(sum, total)}};
}

std::vector<Violation>
check_resource_fit(const std::string& name, const sim::ResourceFootprint& total,
                   const sim::ResourceFootprint& device) {
    std::ostringstream over;
    auto col = [&](const char* n, uint64_t used, uint64_t cap) {
        if (used > cap) over << " " << n << " " << used << " > " << cap;
    };
    col("luts", total.luts, device.luts);
    col("regs", total.regs, device.regs);
    col("bram", total.bram, device.bram);
    col("uram", total.uram, device.uram);
    col("dsp", total.dsp, device.dsp);
    if (over.str().empty()) return {};
    return {{Check::kResourceFit, name,
             "'" + name + "' exceeds device capacity:" + over.str()}};
}

std::string
component_of(const std::string& net_name) {
    size_t dot = net_name.find('.');
    return dot == std::string::npos ? net_name : net_name.substr(0, dot);
}

std::string
dot_escape(const std::string& s) {
    // Inside a double-quoted DOT ID only '"' needs escaping, but a lone
    // backslash would start an unintended escape sequence and raw
    // newlines split the ID — double the former, encode the latter.
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': break;
        default: out += c;
        }
    }
    return out;
}

std::string
to_dot(const sim::Kernel& kernel) {
    std::ostringstream os;
    os << "digraph netlist {\n  rankdir=LR;\n"
       << "  node [fontname=\"monospace\", fontsize=10];\n";

    std::set<std::string> components;
    for (const PortRecord& p : kernel.ports()) components.insert(p.component);
    for (const std::string& c : components) {
        os << "  \"" << dot_escape(c)
           << "\" [shape=box, style=filled, fillcolor=lightblue];\n";
    }
    for (const NetRecord& n : kernel.nets()) {
        const char* kind = n.kind == NetRecord::kFifo ? "fifo" : "link";
        os << "  \"" << dot_escape(n.name) << "\" [shape=ellipse, label=\""
           << dot_escape(n.name) << "\\n" << kind << " " << n.width_bits
           << "b x" << n.depth << "\"];\n";
    }
    for (const PortRecord& p : kernel.ports()) {
        if (p.dir == PortRecord::kWrite) {
            os << "  \"" << dot_escape(p.component) << "\" -> \""
               << dot_escape(p.net) << "\";\n";
        } else {
            os << "  \"" << dot_escape(p.net) << "\" -> \""
               << dot_escape(p.component) << "\";\n";
        }
    }
    os << "}\n";
    return os.str();
}

std::string
lint_json(const sim::Kernel& kernel, const std::vector<Violation>& violations) {
    size_t fifo = 0, link = 0;
    for (const NetRecord& n : kernel.nets()) {
        switch (n.kind) {
        case NetRecord::kFifo: ++fifo; break;
        case NetRecord::kLink: ++link; break;
        }
    }
    std::set<std::string> components;
    for (const PortRecord& p : kernel.ports()) components.insert(p.component);

    obs::JsonWriter w;
    w.begin_object();
    w.key("netlist").begin_object();
    w.key("nets").value(uint64_t(kernel.nets().size()));
    w.key("fifo_nets").value(uint64_t(fifo));
    w.key("link_nets").value(uint64_t(link));
    w.key("ports").value(uint64_t(kernel.ports().size()));
    w.key("components").value(uint64_t(components.size()));
    w.key("checks").value(uint64_t(kCheckCount));
    w.end_object();
    w.key("violation_count").value(uint64_t(violations.size()));
    w.key("violations").begin_array();
    for (const Violation& v : violations) {
        w.begin_object();
        w.key("check").value(check_name(v.check));
        w.key("subject").value(v.subject);
        w.key("message").value(v.message);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

std::string
report(const std::vector<Violation>& violations) {
    std::ostringstream os;
    for (const Violation& v : violations) {
        os << "[lint:" << check_name(v.check) << "] " << v.message << "\n";
    }
    return os.str();
}

}  // namespace rosebud::lint
