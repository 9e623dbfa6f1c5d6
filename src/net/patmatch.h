/// \file
/// Multi-pattern string matching (Aho-Corasick automaton).
///
/// This is the functional heart of the IDS rule matcher (net/rulematch.h)
/// that the Pigasus string-matching-engine accelerator model and the
/// Snort-like software baseline share. Building the automaton corresponds
/// to the rule-compilation step of the paper's workflow.
///
/// finalize() compiles the patterns into a compact DFA:
///  * Bytes that occur in no pattern share one input class. A `nocase`
///    automaton gives both cases of a letter one class, so it scans text
///    as is.
///  * One flat uint32_t table holds, per (state, class), the next state's
///    premultiplied row offset, so a step is one add and one load.
///  * Accepting states are numbered last, so "this byte ended a match" is
///    a compare against one offset that sits off the load chain.
///
/// scan() cuts texts of at least kSplitLen bytes into kStreams consecutive
/// slices and steps the streams interleaved, overlapping their load
/// chains. The DFA state after a byte depends only on the last (max
/// pattern length) bytes, so a stream that starts (max pattern length - 1)
/// bytes before its slice is in the serial scan's state after every byte
/// of its slice. A stream that visited an accepting state is rescanned
/// serially to emit its matches, so the output is exactly the serial
/// scan's, end offsets ascending.

#ifndef ROSEBUD_NET_PATMATCH_H
#define ROSEBUD_NET_PATMATCH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rosebud::net {

/// ASCII case folding of the `nocase` modifier.
inline uint8_t
fold_case(uint8_t b) {
    return b >= 'A' && b <= 'Z' ? uint8_t(b + 32) : b;
}

/// A match emitted by the automaton.
struct PatternMatch {
    uint32_t pattern_id = 0;  ///< index passed at add_pattern time
    uint32_t end_offset = 0;  ///< offset one past the last matched byte
};

/// Aho-Corasick automaton over raw bytes. Build once, scan many.
class AhoCorasick {
 public:
    /// A `nocase` automaton matches its patterns in any ASCII letter case.
    explicit AhoCorasick(bool nocase = false) : nocase_(nocase) {}

    /// Register a pattern; `id` is reported on match. Empty patterns are
    /// ignored. Must be called before finalize().
    void add_pattern(const std::vector<uint8_t>& bytes, uint32_t id);

    /// Compile the DFA. Scanning before finalize() is invalid.
    void finalize();

    /// Scan `len` bytes; append every match to `out`, end offsets
    /// ascending. Returns the number of matches found.
    size_t scan(const uint8_t* data, size_t len, std::vector<PatternMatch>& out) const;

    size_t pattern_count() const { return patterns_.size(); }

 private:
    static constexpr size_t kStreams = 4;
    /// Shortest text scanned as streams. A text shorter than 8 warm-ups
    /// is scanned serially too, so each stream's own slice dominates its
    /// steps.
    static constexpr size_t kSplitLen = 256;

    struct Pattern {
        std::vector<uint8_t> bytes;
        uint32_t id = 0;
    };

    /// Step from row offset `s` over data[from, to); append matches to
    /// `out` unless it is null. Returns the final row offset.
    size_t run(size_t s, const uint8_t* data, size_t from, size_t to,
               std::vector<PatternMatch>* out) const;

    bool nocase_;
    std::vector<Pattern> patterns_;
    std::array<uint16_t, 256> class_{};  ///< byte -> input class
    uint32_t classes_ = 0;               ///< row width of next_
    std::vector<uint32_t> next_;         ///< [row offset + class] -> next row offset
    uint32_t accept_ = 0;                ///< row offset of the first accepting state
    std::vector<uint32_t> out_begin_;    ///< accepting state -> first entry in out_ids_
    std::vector<uint32_t> out_ids_;      ///< pattern ids, grouped per accepting state
    size_t warmup_ = 0;                  ///< max pattern length - 1
};

}  // namespace rosebud::net

#endif  // ROSEBUD_NET_PATMATCH_H
