#include "net/patmatch.h"

#include <algorithm>
#include <limits>

#include "sim/log.h"

namespace rosebud::net {

void
AhoCorasick::add_pattern(const std::vector<uint8_t>& bytes, uint32_t id) {
    if (!next_.empty()) sim::panic("AhoCorasick: add_pattern after finalize");
    if (bytes.empty()) return;
    Pattern p{bytes, id};
    if (nocase_) std::transform(p.bytes.begin(), p.bytes.end(), p.bytes.begin(), fold_case);
    patterns_.push_back(std::move(p));
}

void
AhoCorasick::finalize() {
    // Input classes: 0 for bytes in no pattern, then one per pattern byte.
    std::array<bool, 256> used{};
    size_t max_len = 0;
    for (const Pattern& p : patterns_) {
        for (uint8_t b : p.bytes) used[b] = true;
        max_len = std::max(max_len, p.bytes.size());
    }
    class_.fill(0);
    classes_ = 1;
    for (int b = 0; b < 256; ++b) {
        if (used[b]) class_[b] = uint16_t(classes_++);
    }
    if (nocase_) {
        for (int b = 'A'; b <= 'Z'; ++b) class_[b] = class_[b + 32];
    }
    warmup_ = max_len > 0 ? max_len - 1 : 0;
    const size_t width = classes_;

    // Trie over classes; -1 marks a missing edge.
    std::vector<int32_t> go(width, -1);
    std::vector<std::vector<uint32_t>> outputs(1);
    for (const Pattern& p : patterns_) {
        size_t u = 0;
        for (uint8_t b : p.bytes) {
            size_t e = u * width + class_[b];
            if (go[e] < 0) {
                go[e] = int32_t(outputs.size());
                outputs.emplace_back();
                go.resize(go.size() + width, -1);
            }
            u = size_t(go[e]);
        }
        outputs[u].push_back(p.id);
    }
    const size_t states = outputs.size();
    if (states * width > std::numeric_limits<uint32_t>::max()) {
        sim::panic("AhoCorasick: automaton too large");
    }

    // Fold failure links into `go` in BFS order; a state also reports the
    // outputs of its failure state.
    std::vector<size_t> fail(states, 0);
    std::vector<size_t> order{0};
    order.reserve(states);
    for (size_t c = 0; c < width; ++c) {
        if (go[c] < 0) {
            go[c] = 0;
        } else {
            order.push_back(size_t(go[c]));
        }
    }
    for (size_t head = 1; head < order.size(); ++head) {
        size_t u = order[head];
        size_t f = fail[u];
        outputs[u].insert(outputs[u].end(), outputs[f].begin(), outputs[f].end());
        for (size_t c = 0; c < width; ++c) {
            int32_t& v = go[u * width + c];
            int32_t via_fail = go[f * width + c];
            if (v < 0) {
                v = via_fail;
            } else {
                fail[size_t(v)] = size_t(via_fail);
                order.push_back(size_t(v));
            }
        }
    }

    // Renumber: non-accepting states first (the root stays 0), then the
    // accepting ones, each group in BFS order.
    std::vector<uint32_t> row(states);
    uint32_t id = 0;
    for (size_t u : order) {
        if (outputs[u].empty()) row[u] = id++;
    }
    accept_ = id * classes_;
    out_begin_.assign(1, 0);
    out_ids_.clear();
    for (size_t u : order) {
        if (outputs[u].empty()) continue;
        row[u] = id++;
        out_ids_.insert(out_ids_.end(), outputs[u].begin(), outputs[u].end());
        out_begin_.push_back(uint32_t(out_ids_.size()));
    }
    next_.assign(states * width, 0);
    for (size_t u = 0; u < states; ++u) {
        for (size_t c = 0; c < width; ++c) {
            next_[row[u] * width + c] = row[size_t(go[u * width + c])] * classes_;
        }
    }
}

size_t
AhoCorasick::run(size_t s, const uint8_t* data, size_t from, size_t to,
                 std::vector<PatternMatch>* out) const {
    const uint32_t* next = next_.data();
    const uint16_t* cls = class_.data();
    const size_t accept = accept_;
    for (size_t i = from; i < to; ++i) {
        s = next[s + cls[data[i]]];
        if (s >= accept && out) {
            size_t a = (s - accept) / classes_;
            for (uint32_t k = out_begin_[a]; k < out_begin_[a + 1]; ++k) {
                out->push_back({out_ids_[k], uint32_t(i + 1)});
            }
        }
    }
    return s;
}

size_t
AhoCorasick::scan(const uint8_t* data, size_t len, std::vector<PatternMatch>& out) const {
    if (next_.empty()) sim::panic("AhoCorasick: scan before finalize");
    if (patterns_.empty()) return 0;
    const size_t before = out.size();
    size_t pos = 0;
    size_t s = 0;
    if (len >= std::max(kSplitLen, 8 * warmup_)) {
        // Stream k steps n bytes from k * gap. Its slice (the bytes whose
        // matches it owns) starts warmup_ bytes in, except for stream 0,
        // and ends where stream k + 1's slice starts.
        static_assert(kStreams == 4, "the loop below is unrolled for 4 streams");
        const size_t n = (len + (kStreams - 1) * warmup_) / kStreams;
        const size_t gap = n - warmup_;
        const uint32_t* next = next_.data();
        const uint16_t* cls = class_.data();
        const uint8_t* p0 = data;
        const uint8_t* p1 = data + gap;
        const uint8_t* p2 = data + 2 * gap;
        const uint8_t* p3 = data + 3 * gap;
        const size_t accept = accept_;
        size_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        unsigned accepted = 0;  // bit k: stream k visited an accepting state
        for (size_t i = 0; i < n; ++i) {
            s0 = next[s0 + cls[p0[i]]];
            s1 = next[s1 + cls[p1[i]]];
            s2 = next[s2 + cls[p2[i]]];
            s3 = next[s3 + cls[p3[i]]];
            if (std::max(std::max(s0, s1), std::max(s2, s3)) >= accept) [[unlikely]] {
                accepted |= unsigned(s0 >= accept) | unsigned(s1 >= accept) << 1 |
                            unsigned(s2 >= accept) << 2 | unsigned(s3 >= accept) << 3;
            }
        }
        for (size_t k = 0; k < kStreams; ++k) {
            if (!(accepted >> k & 1)) continue;
            size_t begin = k * gap;
            size_t slice = k == 0 ? 0 : begin + warmup_;
            run(run(0, data, begin, slice, nullptr), data, slice, begin + n, &out);
        }
        pos = (kStreams - 1) * gap + n;
        s = s3;
    }
    run(s, data, pos, len, &out);
    return out.size() - before;
}

}  // namespace rosebud::net
