#include "obs/profile.h"

#include <cstdio>
#include <sstream>

#include "core/system.h"
#include "obs/json.h"
#include "rv/core.h"
#include "rv/disasm.h"

namespace rosebud::obs {

CoreProfile
collect_profile(const rv::Core& core) {
    CoreProfile p;
    p.name = core.name();
    p.cycles = core.profiled_cycles();
    p.instret = core.instret();
    p.halted = core.halted();
    p.pc_cycles = core.pc_histogram();
    return p;
}

std::vector<CoreProfile>
collect_profiles(System& sys) {
    std::vector<CoreProfile> out;
    for (unsigned i = 0; i < sys.rpu_count(); ++i) {
        out.push_back(collect_profile(sys.rpu(i).core()));
    }
    return out;
}

CoreProfile
aggregate_profiles(const std::vector<CoreProfile>& profiles, const std::string& name) {
    CoreProfile agg;
    agg.name = name;
    for (const auto& p : profiles) {
        agg.cycles += p.cycles;
        for (const auto& [pc, cy] : p.pc_cycles) agg.pc_cycles[pc] += cy;
    }
    return agg;
}

std::string
annotate(const std::vector<uint32_t>& image, const CoreProfile& profile, uint32_t base,
         double hot_frac) {
    std::ostringstream os;
    char buf[192];
    const double total = profile.cycles ? double(profile.cycles) : 1.0;
    os << "firmware profile: " << profile.name << ", " << profile.cycles
       << " cycles attributed\n";
    for (size_t i = 0; i < image.size(); ++i) {
        const uint32_t pc = base + uint32_t(i) * 4;
        auto it = profile.pc_cycles.find(pc);
        const uint64_t cy = it == profile.pc_cycles.end() ? 0 : it->second;
        const double frac = double(cy) / total;
        std::snprintf(buf, sizeof(buf), "%c %6.2f%% %12llu  %08x:  %s\n",
                      frac >= hot_frac ? '*' : ' ', 100.0 * frac,
                      (unsigned long long)cy, pc,
                      rv::disassemble(image[i], pc).c_str());
        os << buf;
    }
    // Cycles attributed outside the image (trap handlers, bad jumps).
    for (const auto& [pc, cy] : profile.pc_cycles) {
        if (pc >= base && pc < base + uint32_t(image.size()) * 4) continue;
        const double frac = double(cy) / total;
        std::snprintf(buf, sizeof(buf), "%c %6.2f%% %12llu  %08x:  <outside image>\n",
                      frac >= hot_frac ? '*' : ' ', 100.0 * frac,
                      (unsigned long long)cy, pc);
        os << buf;
    }
    return os.str();
}

std::vector<WcetCrossCheck>
wcet_cross_check(const std::vector<CoreProfile>& profiles,
                 const verify::Certificate& cert) {
    std::vector<WcetCrossCheck> out;
    for (const auto& p : profiles) {
        WcetCrossCheck c;
        c.core = p.name;
        c.observed = p.instret;
        c.bound = cert.wcet_instructions;
        c.applicable = p.halted && cert.wcet_bounded;
        c.ok = !c.applicable || c.observed <= c.bound;
        out.push_back(std::move(c));
    }
    return out;
}

std::string
profile_json(const CoreProfile& profile) {
    JsonWriter w;
    w.begin_object();
    w.key("name").value(profile.name);
    w.key("cycles").value(profile.cycles);
    w.key("instret").value(profile.instret);
    w.key("halted").value(profile.halted);
    w.key("pcs").begin_array();
    for (const auto& [pc, cy] : profile.pc_cycles) {
        w.begin_object();
        w.key("pc").value(uint64_t(pc));
        w.key("cycles").value(cy);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace rosebud::obs
