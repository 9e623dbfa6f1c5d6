#include "measure.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

namespace simbench {

using rosebud::sim::Cycle;

namespace {

/// Simulated cycles run after the exp harness's warm-up and before the
/// window, so the host's caches and allocator reach steady state.
constexpr Cycle kHostWarmupCycles = 200'000;

constexpr int kMaxReplicas = 4;

double
peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string
serialize(const Replica& r) {
    std::ostringstream out;
    out.precision(17);
    out << "rss " << r.rss_mb << "\nsetups";
    for (double s : r.setups) out << ' ' << s;
    for (const Pass& p : r.passes) {
        out << "\npass " << p.fingerprint;
        for (int64_t ns : p.slice_ns) out << ' ' << ns;
    }
    out << '\n';
    return out.str();
}

std::optional<Replica>
parse_replica(const std::string& text) {
    Replica r;
    std::istringstream in(text);
    std::string line;
    int fields = 0;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        int64_t ns;
        double s;
        if (key == "rss") {
            ls >> r.rss_mb;
        } else if (key == "setups") {
            while (ls >> s) r.setups.push_back(s);
        } else if (key == "pass") {
            Pass& p = r.passes.emplace_back();
            ls >> p.fingerprint;
            while (ls >> ns) p.slice_ns.push_back(ns);
            if (p.slice_ns.size() != kWindowSlices) return std::nullopt;
        } else {
            return std::nullopt;
        }
        ++fields;
    }
    if (fields < 3) return std::nullopt;
    return r;
}

unsigned
replica_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return unsigned(std::clamp(CPU_COUNT(&set), 1, kMaxReplicas));
}

}  // namespace

void
warm_up(Instance& inst, Trace* trace) {
    SpanScope s(trace, "warmup");
    inst.sys->run_cycles(inst.spec.warmup + kHostWarmupCycles);
}

Window
run_window(Instance& inst, Trace* trace, const std::function<void(size_t)>& before_slice) {
    Window w;
    rosebud::sim::Kernel& k = inst.sys->kernel();
    for (size_t slice = 0; slice < kWindowSlices; ++slice) {
        if (before_slice) before_slice(slice);
        {
            SpanScope s(trace, "run_cycles");
            int64_t t0 = now_ns();
            inst.sys->run_cycles(kSliceCycles);
            w.slice_ns.push_back(now_ns() - t0);
        }
        w.awake_share += double(k.awake_count()) / double(k.component_count());
    }
    w.awake_share /= double(w.slice_ns.size());
    return w;
}

Replica
run_passes(Workload w, uint64_t seed, int passes, Instance& inst,
           const std::function<void(size_t)>& before_slice) {
    Replica r;
    for (int p = 0; p < passes; ++p) {
        inst.sys.reset();  // before the probes and rules it calls into
        inst = build(w, seed, nullptr);
        if (p == 0) r.setups.push_back(double(inst.setup_ns) * 1e-9);
        warm_up(inst, nullptr);
        Pass& pass = r.passes.emplace_back();
        pass.slice_ns = run_window(inst, nullptr, before_slice).slice_ns;
        pass.fingerprint = inst.sys->state_fingerprint();
        if (p == 0) r.rss_mb = peak_rss_mb();
    }
    return r;
}

Replicas
run_replicas(const std::function<Replica()>& body) {
    struct Child {
        pid_t pid;
        int fd;
    };
    std::vector<Child> children;
    std::fflush(stdout);
    for (unsigned i = 1, n = replica_count(); i < n; ++i) {
        int fds[2];
        if (pipe(fds) != 0) break;
        pid_t pid = fork();
        if (pid == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            close(fds[0]);
            std::string out = serialize(body());
            bool ok = write(fds[1], out.data(), out.size()) == ssize_t(out.size());
            std::_Exit(ok ? 0 : 1);
        }
        close(fds[1]);
        if (pid < 0) {
            close(fds[0]);
            break;
        }
        children.push_back({pid, fds[0]});
    }

    Replicas rs;
    rs.done.push_back(body());
    for (const Child& c : children) {
        std::string text;
        char buf[4096];
        for (ssize_t n; (n = read(c.fd, buf, sizeof buf)) > 0;) text.append(buf, size_t(n));
        close(c.fd);
        int status = 0;
        waitpid(c.pid, &status, 0);
        auto r = parse_replica(text);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && r) rs.done.push_back(std::move(*r));
        else ++rs.lost;
    }
    return rs;
}

double
mcycles_per_s(const std::vector<Replica>& replicas) {
    std::vector<int64_t> fastest(kWindowSlices, std::numeric_limits<int64_t>::max());
    for (const Replica& r : replicas)
        for (const Pass& p : r.passes)
            for (size_t k = 0; k < kWindowSlices; ++k) fastest[k] = std::min(fastest[k], p.slice_ns[k]);
    double ns = 0;
    for (int64_t t : fastest) ns += double(t);
    return double(kWindowCycles) / ns * 1e3;
}

std::vector<double>
slice_rates(const std::vector<Replica>& replicas) {
    std::vector<double> rates;
    for (const Replica& r : replicas)
        for (const Pass& p : r.passes)
            for (int64_t ns : p.slice_ns) rates.push_back(double(kSliceCycles) / double(ns) * 1e3);
    return rates;
}

double
quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

}  // namespace simbench
