/// \file
/// Elaboration-time netlist linter.
///
/// Every Fifo primitive self-declares a net at construction, and each
/// hardware component declares its directed ports (writer/reader endpoints,
/// with the width and depth it *expects*) into the owning sim::Kernel. The
/// checks here run over that graph before cycle 0 — the moral equivalent of
/// an RTL lint pass over the Verilog this model stands in for:
///
///  * kUnknownNet     — a port references a net nobody declared
///  * kDangling       — a net with no ports at all
///  * kNeverWritten   — a net with readers but no writer (and not external)
///  * kNeverRead      — a net with writers but no reader (and not external)
///  * kMultiWriter    — >1 distinct writer component without kNetMultiWriter
///  * kMultiReader    — >1 distinct reader component without kNetMultiReader
///  * kWidthMismatch  — a port's declared width differs from its net's
///  * kPaperWidth     — a net's width/depth differs from the paper's bus
///                      table (512-bit main switch, 128-bit per-RPU links…)
///  * kZeroDepth      — a FIFO net with zero depth
///  * kCreditDepth    — a port's credit depth differs from the net's depth
///  * kResourceSum    — child ResourceFootprints do not sum into the parent
///  * kResourceFit    — a design does not fit its device
///  * kWakeEdge       — a read port on a non-external net names a component
///                      the kernel has not registered: quiescence wake
///                      edges (sim/kernel.h) are routed through exactly
///                      these ports, so a push could never wake a sleeping
///                      reader declared under the wrong name
///
/// See docs/LINT.md for how components register ports and how to read the
/// DOT dump.

#ifndef ROSEBUD_LINT_NETLIST_H
#define ROSEBUD_LINT_NETLIST_H

#include <string>
#include <vector>

#include "sim/kernel.h"
#include "sim/resources.h"

namespace rosebud::lint {

enum class Check : uint8_t {
    kUnknownNet,
    kDangling,
    kNeverWritten,
    kNeverRead,
    kMultiWriter,
    kMultiReader,
    kWidthMismatch,
    kPaperWidth,
    kZeroDepth,
    kCreditDepth,
    kResourceSum,
    kResourceFit,
    kWakeEdge,
};

/// Stable short name for a check, e.g. "never-read".
const char* check_name(Check c);

/// One finding. `subject` is the net / port / resource row it concerns.
struct Violation {
    Check check;
    std::string subject;
    std::string message;
};

/// Expected width (and optionally depth) for nets whose name matches
/// `prefix`…`suffix`. Widths come from the paper's datapath table; the nets
/// carry config-derived widths, so a config that drifts from the paper's
/// bus sizing fails the check.
struct WidthRule {
    std::string prefix;
    std::string suffix;
    unsigned width_bits = 0;
    size_t depth = 0;  ///< 0 = depth not constrained
};

/// The paper's bus-width table (Sections 4-5): 512-bit stage-1 switch and
/// MAC datapaths, 128-bit per-RPU links, 64-bit descriptors and broadcast
/// messages.
std::vector<WidthRule> paper_width_table();

/// Run all netlist checks over the kernel's declared nets and ports.
std::vector<Violation> check_netlist(const sim::Kernel& kernel,
                                     const std::vector<WidthRule>& rules);

/// One child row of a resource-sum check.
struct ResourceItem {
    std::string name;
    sim::ResourceFootprint fp;
    uint64_t count = 1;
};

/// Check that `children` (each times its count) sum exactly to `total`.
std::vector<Violation> check_resource_sum(const std::string& parent,
                                          const sim::ResourceFootprint& total,
                                          const std::vector<ResourceItem>& children);

/// Check that `total` fits within `device`.
std::vector<Violation> check_resource_fit(const std::string& name,
                                          const sim::ResourceFootprint& total,
                                          const sim::ResourceFootprint& device);

/// Owning component of a dotted net name — the prefix before the first
/// '.', e.g. "fabric" for "fabric.voq.r0.s0" ("" stays ""). This is the
/// grouping rule the lint reports and the stall-attribution rollups share.
std::string component_of(const std::string& net_name);

/// Number of distinct static checks (the Check enum), reported in the
/// JSON netlist summary.
inline constexpr unsigned kCheckCount = 13;

/// Escape a name for use inside a double-quoted DOT ID or label: doubles
/// backslashes and escapes embedded quotes, so indexed/bracketed net names
/// survive `dot -Tcanon` and GTK-style viewers.
std::string dot_escape(const std::string& s);

/// Render the netlist as a GraphViz digraph: component boxes, net ellipses,
/// write edges component->net, read edges net->component.
std::string to_dot(const sim::Kernel& kernel);

/// Human-readable multi-line report ("" when no violations).
std::string report(const std::vector<Violation>& violations);

/// Machine-readable JSON of a lint run — the netlist summary (net/port/
/// component counts per kind, number of checks) plus every violation —
/// matching the `verify --json` convention.
std::string lint_json(const sim::Kernel& kernel,
                      const std::vector<Violation>& violations);

}  // namespace rosebud::lint

#endif  // ROSEBUD_LINT_NETLIST_H
