/// \file
/// Online differential scoreboard: taps a System's packet-lifecycle
/// observer stream (System::add_packet_observer), predicts every ingress
/// packet's fate with the DataplaneOracle, and diffs the simulated
/// outcome — egress interface, output bytes, LB hash and steering, drop
/// decisions, duplicate/lost packets — against the prediction as events
/// arrive. The first divergences are captured with full packet and
/// firmware context for post-mortem (Scoreboard::report()).
///
/// Congestion losses (MAC FIFO overflow) are architectural, not
/// functional: they are tallied separately and never flagged.

#ifndef ROSEBUD_ORACLE_SCOREBOARD_H
#define ROSEBUD_ORACLE_SCOREBOARD_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "oracle/oracle.h"

namespace rosebud::oracle {

class Scoreboard {
 public:
    struct Counts {
        uint64_t offered = 0;  ///< packets registered at ingress
        uint64_t forwarded_wire = 0;
        uint64_t host_delivered = 0;
        uint64_t punted = 0;  ///< host deliveries of unscanned (punt) records
        uint64_t fw_dropped = 0;
        uint64_t congestion_dropped = 0;
        uint64_t divergences = 0;
        /// Order-insensitive digest of all terminal outputs (egress kind,
        /// packet id, bytes); equal digests on two runs mean identical
        /// per-packet output bytes. Used by the determinism tests.
        uint64_t output_byte_hash = 0;
    };

    /// Attaches to `sys` immediately. The scoreboard must be destroyed
    /// (or no further cycles run) before the System dies; the destructor
    /// deregisters the observer.
    Scoreboard(System& sys, const DataplaneOracle& oracle);
    ~Scoreboard();

    Scoreboard(const Scoreboard&) = delete;
    Scoreboard& operator=(const Scoreboard&) = delete;

    /// Packets registered at ingress whose fate is still unresolved.
    /// Drive the drain loop with this: run extra cycles until it is 0 or
    /// stops shrinking.
    size_t outstanding() const { return outstanding_; }

    uint64_t divergence_count() const { return counts_.divergences; }

    const Counts& counts() const { return counts_; }

    /// Close the books: every still-unresolved packet becomes a
    /// stuck-packet divergence. Returns the final counts. Call once,
    /// after the drain loop.
    Counts finish();

    /// Human-readable dump of the first captured divergences (empty
    /// string if none): kind, cycle, packet bytes, prediction vs actual,
    /// and the assigned RPU's debug state.
    std::string report() const;

 private:
    struct Entry {
        std::vector<uint8_t> input;  ///< frame as it arrived on the wire
        Prediction pred;
        net::Iface in_iface = net::Iface::kPort0;
        uint8_t assigned_rpu = 0xff;
        uint8_t terminals = 0;  ///< terminal events seen (must end at 1)
        bool congestion = false;
    };

    void on_event(net::Stage stage, const net::Packet& pkt, sim::Cycle now);
    void terminal(uint64_t id, Entry& e, net::Stage stage, const net::Packet& pkt,
                  sim::Cycle now);
    /// `where` names the stage (or "finish") in the report.
    void diverge(const char* kind, uint64_t id, const Entry* e, const char* where,
                 const net::Packet* actual, sim::Cycle now, const std::string& detail);
    void fold_output(char kind, uint64_t id, const std::vector<uint8_t>& bytes);

    System& sys_;
    const DataplaneOracle& oracle_;
    uint64_t observer_handle_ = 0;

    std::map<uint64_t, Entry> entries_;
    size_t outstanding_ = 0;
    Counts counts_;
    std::vector<std::string> reports_;
    bool finished_ = false;

    /// NAT mapping stability: (rpu, internal ip, internal port) -> external
    /// port must be stable, and per-RPU external ports injective.
    std::map<std::tuple<uint8_t, uint32_t, uint16_t>, uint16_t> nat_forward_;
    std::map<std::pair<uint8_t, uint16_t>, std::tuple<uint32_t, uint16_t>> nat_reverse_;
};

}  // namespace rosebud::oracle

#endif  // ROSEBUD_ORACLE_SCOREBOARD_H
