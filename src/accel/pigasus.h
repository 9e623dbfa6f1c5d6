/// \file
/// Pigasus string/port-matching accelerator ported into an RPU (paper
/// Section 7.1, Appendix A/B).
///
/// Functional behaviour is real: rules are compiled into a fast-pattern
/// Aho-Corasick automaton (the MSPM front end), candidates are verified
/// against every content of the rule plus the port/protocol constraints
/// (the port-matcher stage), and matched rule ids are delivered through a
/// result FIFO exactly as the paper's firmware consumes them (Appendix B):
///
///   IO_EXT + 0x00  ACC_PIG_CTRL  (W): 1 = start job, 2 = pop result FIFO
///   IO_EXT + 0x00  ACC_PIG_MATCH (R): 1 if the result FIFO is non-empty
///   IO_EXT + 0x04  ACC_DMA_LEN   (W): payload length
///   IO_EXT + 0x08  ACC_DMA_ADDR  (W): payload address in packet memory
///   IO_EXT + 0x0c  ACC_PIG_PORTS (W): raw L4 port word (network order)
///   IO_EXT + 0x10  ACC_PIG_STATE_L (W)
///   IO_EXT + 0x14  ACC_PIG_STATE_H (W): 0 selects the UDP rule group
///   IO_EXT + 0x18  ACC_PIG_SLOT  (W): slot tag / (R): result head's slot
///   IO_EXT + 0x1c  ACC_PIG_RULE_ID (R): result head's rule id, 0 = end
///   IO_EXT + 0x78  ACC_DMA_STAT  (R): bit0 busy, bit8 done
///
/// Every RPU's engine is loaded with the same rule set (Section 7.1), so the
/// matchers built from one IdsRuleSet share its one compiled, read-only
/// automaton (IdsRuleSet::matcher()); the hardware's per-RPU table copies
/// are counted by resources(). load_rules() repoints one matcher only, so
/// a runtime rule update stays per RPU.
///
/// Timing: the engine streams payload out of packet memory at
/// `engines` bytes/cycle (16 engines => 16 B/cycle = 32 Gbps, Section
/// 7.1.4) behind a fixed pipeline, with a small job-dequeue overhead. Jobs
/// queue in the wrapper FIFOs so firmware runs ahead of the hardware.

#ifndef ROSEBUD_ACCEL_PIGASUS_H
#define ROSEBUD_ACCEL_PIGASUS_H

#include <memory>
#include <vector>

#include "net/rulematch.h"
#include "rpu/accelerator.h"

namespace rosebud::accel {

inline constexpr uint32_t kPigRegCtrl = 0x00;   ///< W: 1 start / 2 release
inline constexpr uint32_t kPigRegMatch = 0x00;  ///< R: result ready (byte)
inline constexpr uint32_t kPigRegDmaLen = 0x04;
inline constexpr uint32_t kPigRegDmaAddr = 0x08;
inline constexpr uint32_t kPigRegPorts = 0x0c;
inline constexpr uint32_t kPigRegStateL = 0x10;
inline constexpr uint32_t kPigRegStateH = 0x14;
inline constexpr uint32_t kPigRegSlot = 0x18;
inline constexpr uint32_t kPigRegRuleId = 0x1c;
inline constexpr uint32_t kPigRegDmaStat = 0x78;

class PigasusMatcher : public rpu::Accelerator {
 public:
    struct Params {
        unsigned engines = 16;         ///< string-matching engines (paper: 16/RPU)
        unsigned job_queue_depth = 33; ///< sized to the slot count: firmware
                                       ///< can never overflow the wrapper FIFO
        unsigned result_fifo_depth = 16;
        unsigned pipeline_cycles = 16;  ///< hash + reduction + packer depth
        unsigned dequeue_cycles = 4;    ///< job handshake
    };

    explicit PigasusMatcher(const net::IdsRuleSet& rules);
    PigasusMatcher(const net::IdsRuleSet& rules, Params params);

    void reset() override;
    void tick(rpu::AccelContext& ctx) override;
    bool mmio_read(uint32_t offset, uint32_t& value, rpu::AccelContext& ctx) override;
    bool mmio_write(uint32_t offset, uint32_t value, rpu::AccelContext& ctx) override;
    sim::ResourceFootprint resources() const override;
    std::string name() const override { return "pigasus_sme"; }
    unsigned stream_ports() const override { return 4; }
    unsigned queue_count() const override { return 4; }

    /// Functional scan (no timing): matched rule sids for a payload given
    /// the raw port word and TCP-ness, as a job computes them. Used
    /// directly by tests and by the software baseline cross-check.
    std::vector<uint32_t> match_payload(const uint8_t* payload, size_t len,
                                        uint32_t raw_ports, bool is_tcp) const;

    /// Rewrite the rule tables at runtime (the capability Rosebud adds to
    /// Pigasus: runtime ruleset updates via the RPU memory subsystem). Only
    /// this matcher switches to `rules`' compile; the others keep theirs.
    void load_rules(const net::IdsRuleSet& rules);

    const Params& params() const { return params_; }

 private:
    struct Job {
        uint32_t addr = 0;
        uint32_t len = 0;
        uint32_t ports = 0;
        uint32_t state_l = 0;
        uint32_t state_h = 0;
        uint8_t slot = 0;
    };

    struct Result {
        uint32_t rule_id = 0;  ///< 0 = end-of-packet marker
        uint8_t slot = 0;
    };

    void match(const uint8_t* payload, size_t len, uint32_t raw_ports, bool is_tcp,
               std::vector<uint32_t>& sids, std::vector<net::PatternMatch>& hits) const;
    void finish_job(rpu::AccelContext& ctx);

    std::shared_ptr<const net::RuleMatcher> matcher_;
    Params params_;

    // Latched registers for the next job.
    Job staging_;

    // Both FIFOs are vectors reserved to their depth, so jobs never allocate.
    std::vector<Job> job_queue_;
    bool busy_ = false;
    Job active_;
    uint64_t done_at_ = 0;
    bool results_pending_ = false;
    std::vector<Result> pending_results_;
    std::vector<Result> result_fifo_;

    // Per-job scratch and counters, kept so a job does not allocate.
    std::vector<uint32_t> sids_;
    std::vector<net::PatternMatch> hits_;
    sim::Counter* jobs_counter_ = nullptr;  ///< resolved on the first job
    sim::Counter* matches_counter_ = nullptr;
};

}  // namespace rosebud::accel

#endif  // ROSEBUD_ACCEL_PIGASUS_H
