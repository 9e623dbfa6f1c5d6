#include "trace.h"

#include <sstream>
#include <stdexcept>

namespace simbench {

Tally*
Trace::boundary(const std::string& name) {
    auto& slot = boundaries_[name];
    if (!slot) slot = std::make_unique<Tally>();
    return slot.get();
}

int
Trace::open(const std::string& name) {
    Span s;
    s.name = name;
    s.run = run_;
    s.parent = open_.empty() ? -1 : open_.back();
    int id = int(spans_.size());
    if (s.parent >= 0) children_[size_t(s.parent)].push_back(id);
    std::map<std::string, Tally> snap;
    for (const auto& [n, t] : boundaries_) snap[n] = *t;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    children_.emplace_back();
    open_.push_back(id);
    open_snapshots_.push_back(std::move(snap));
    return id;
}

void
Trace::close(int id) {
    int64_t end = now_ns();
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("trace: span closed out of order");
    Span& s = spans_[size_t(id)];
    s.end_ns = end;
    // Tallies accrued while this span was open, minus what its children
    // already claimed, belong to this span.
    const auto& snap = open_snapshots_.back();
    for (const auto& [n, t] : boundaries_) {
        Tally own = *t;
        if (auto it = snap.find(n); it != snap.end()) own -= it->second;
        for (int c : children_[size_t(id)]) {
            const auto& ct = spans_[size_t(c)].tallies;
            if (auto it = ct.find(n); it != ct.end()) own -= it->second;
        }
        if (own.calls != 0) s.tallies[n] = own;
    }
    open_.pop_back();
    open_snapshots_.pop_back();
}

double
Trace::self_ns(int id) const {
    const Span& s = spans_[size_t(id)];
    double self = double(s.end_ns - s.start_ns);
    for (int c : children_[size_t(id)])
        self -= double(spans_[size_t(c)].end_ns - spans_[size_t(c)].start_ns);
    for (const auto& [n, t] : s.tallies) self -= t.ns();
    return self;
}

std::string
Trace::validate() const {
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
        if (s.end_ns < s.start_ns) return where + " is open or ends before it starts";
        if (s.parent >= 0) {
            const Span& p = spans_[size_t(s.parent)];
            if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
                return where + " is not inside its parent " + p.name;
            if (s.run != p.run) return where + " has another run id than its parent";
        }
        int64_t prev_end = s.start_ns;
        for (int c : children_[i]) {
            if (spans_[size_t(c)].start_ns < prev_end) return where + " has overlapping children";
            prev_end = spans_[size_t(c)].end_ns;
        }
        // Tally ns are scaled-up samples, so one long sample can push a short
        // span's estimated self time below zero; the timed samples
        // themselves are intervals inside the span and must fit.
        int64_t measured_self = s.end_ns - s.start_ns;
        for (int c : children_[i]) measured_self -= spans_[size_t(c)].end_ns - spans_[size_t(c)].start_ns;
        for (const auto& [n, t] : s.tallies) measured_self -= t.timed_ns;
        if (measured_self < 0) return where + " has negative self time";
    }
    return {};
}

std::string
Trace::to_json() const {
    std::ostringstream os;
    os << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"run\":" << s.run << ",\"parent\":" << s.parent
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"self_ns\":" << int64_t(self_ns(int(i))) << ",\"tallies\":{";
        bool first = true;
        for (const auto& [n, t] : s.tallies) {
            os << (first ? "" : ",") << "\"" << n << "\":{\"calls\":" << t.calls
               << ",\"timed\":" << t.timed << ",\"timed_ns\":" << t.timed_ns
               << ",\"ns\":" << int64_t(t.ns()) << "}";
            first = false;
        }
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

}  // namespace simbench
