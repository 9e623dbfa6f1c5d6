#include "fuzz/corpus.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/log.h"

namespace rosebud::fuzz {

namespace {

const char*
policy_tag(lb::Policy p) {
    switch (p) {
    case lb::Policy::kRoundRobin: return "rr";
    case lb::Policy::kHash: return "hash";
    case lb::Policy::kLeastLoaded: return "ll";
    default: break;
    }
    return "rr";
}

lb::Policy
policy_from_tag(const std::string& tag) {
    if (tag == "rr") return lb::Policy::kRoundRobin;
    if (tag == "hash") return lb::Policy::kHash;
    if (tag == "ll") return lb::Policy::kLeastLoaded;
    sim::fatal("corpus: unknown policy '" + tag + "'");
}

CfgField
cfg_field_from_tag(const std::string& tag) {
    static constexpr CfgField kAll[] = {
        CfgField::kRpuCount,    CfgField::kStage1Width,      CfgField::kLinkWidth,
        CfgField::kVoqDepth,    CfgField::kEgressDepth,      CfgField::kRxFifoDepth,
        CfgField::kTxCmdDepth,  CfgField::kBcastNotifyDepth, CfgField::kBcastTxDepth,
    };
    for (const CfgField f : kAll) {
        if (tag == cfg_field_name(f)) return f;
    }
    sim::fatal("corpus: unknown config field '" + tag + "'");
}

int
hex_nibble(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

std::vector<uint8_t>
parse_hex_bytes(const std::string& hex) {
    if (hex.size() % 2 != 0) sim::fatal("corpus: odd-length hex payload");
    std::vector<uint8_t> out;
    out.reserve(hex.size() / 2);
    for (size_t i = 0; i < hex.size(); i += 2) {
        int hi = hex_nibble(hex[i]);
        int lo = hex_nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) sim::fatal("corpus: bad hex digit in payload");
        out.push_back(uint8_t(hi << 4 | lo));
    }
    return out;
}

}  // namespace

const char*
corpus_kind_name(CorpusCase::Kind k) {
    switch (k) {
    case CorpusCase::Kind::kFirmware: return "fw";
    case CorpusCase::Kind::kPacket: return "pkt";
    case CorpusCase::Kind::kConfig: return "cfg";
    }
    return "?";
}

std::string
corpus_to_text(const CorpusCase& c) {
    std::ostringstream os;
    os << "rosebud-fuzz-case v1\n";
    os << "kind " << corpus_kind_name(c.kind) << "\n";
    os << "seed " << c.seed << "\n";
    if (!c.note.empty()) os << "note " << c.note << "\n";
    switch (c.kind) {
    case CorpusCase::Kind::kFirmware:
        for (const uint32_t w : c.image) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%08" PRIx32, w);
            os << "word " << buf << "\n";
        }
        break;
    case CorpusCase::Kind::kPacket:
        os << "pipeline " << oracle::pipeline_name(c.pkt.pipeline) << "\n";
        os << "policy " << policy_tag(c.pkt.policy) << "\n";
        os << "rpu_count " << c.pkt.rpu_count << "\n";
        os << "packet_size " << c.pkt.packet_size << "\n";
        for (const auto& frame : c.frames) {
            os << "frame ";
            for (const uint8_t b : frame) {
                char buf[4];
                std::snprintf(buf, sizeof(buf), "%02x", b);
                os << buf;
            }
            os << "\n";
        }
        break;
    case CorpusCase::Kind::kConfig:
        for (const auto& d : c.deltas) {
            os << "delta " << cfg_field_name(d.field) << " " << d.value << "\n";
        }
        break;
    }
    return os.str();
}

CorpusCase
corpus_from_text(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != "rosebud-fuzz-case v1") {
        sim::fatal("corpus: missing 'rosebud-fuzz-case v1' header");
    }
    CorpusCase c;
    bool have_kind = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "kind") {
            std::string tag;
            ls >> tag;
            if (tag == "fw") c.kind = CorpusCase::Kind::kFirmware;
            else if (tag == "pkt") c.kind = CorpusCase::Kind::kPacket;
            else if (tag == "cfg") c.kind = CorpusCase::Kind::kConfig;
            else sim::fatal("corpus: unknown kind '" + tag + "'");
            have_kind = true;
        } else if (key == "seed") {
            ls >> c.seed;
            c.pkt.seed = c.seed;
        } else if (key == "note") {
            std::getline(ls, c.note);
            if (!c.note.empty() && c.note[0] == ' ') c.note.erase(0, 1);
        } else if (key == "word") {
            std::string hex;
            ls >> hex;
            char* end = nullptr;
            unsigned long w = std::strtoul(hex.c_str(), &end, 16);
            if (hex.empty() || end != hex.c_str() + hex.size() || w > 0xffffffffUL) {
                sim::fatal("corpus: bad instruction word '" + hex + "'");
            }
            c.image.push_back(uint32_t(w));
        } else if (key == "pipeline") {
            std::string tag;
            ls >> tag;
            c.pkt.pipeline = oracle::parse_pipeline(tag);
        } else if (key == "policy") {
            std::string tag;
            ls >> tag;
            c.pkt.policy = policy_from_tag(tag);
        } else if (key == "rpu_count") {
            ls >> c.pkt.rpu_count;
        } else if (key == "packet_size") {
            ls >> c.pkt.packet_size;
        } else if (key == "frame") {
            std::string hex;
            ls >> hex;
            c.frames.push_back(parse_hex_bytes(hex));
        } else if (key == "delta") {
            std::string tag;
            uint32_t value = 0;
            ls >> tag >> value;
            c.deltas.push_back({cfg_field_from_tag(tag), value});
        } else {
            sim::fatal("corpus: unknown key '" + key + "'");
        }
    }
    if (!have_kind) sim::fatal("corpus: case has no 'kind' line");
    return c;
}

CorpusCase
corpus_load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) sim::fatal("corpus: cannot open '" + path + "'");
    std::ostringstream os;
    os << in.rdbuf();
    try {
        return corpus_from_text(os.str());
    } catch (const sim::FatalError& e) {
        sim::fatal(std::string(e.what()) + " (in " + path + ")");
    }
}

void
corpus_save(const CorpusCase& c, const std::string& path) {
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) sim::fatal("corpus: cannot write '" + path + "'");
    out << corpus_to_text(c);
}

std::vector<std::string>
corpus_list(const std::string& dir) {
    std::vector<std::string> out;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) return out;
    for (const auto& entry : it) {
        if (entry.path().extension() == ".case") {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
corpus_replay(const CorpusCase& c, std::string* detail) {
    switch (c.kind) {
    case CorpusCase::Kind::kFirmware: {
        FwCase fc{c.seed, c.image};
        FwVerdict v = run_firmware_lockstep(fc);
        if (detail) {
            *detail = fw_kind_name(v.kind);
            if (!v.detail.empty()) *detail += ": " + v.detail;
        }
        return v.ok();
    }
    case CorpusCase::Kind::kPacket: {
        PktVerdict v = replay_packet_case(c.pkt, {}, c.frames);
        if (detail) {
            *detail = v.ok() ? "pass" : "diverge: " + v.detail;
        }
        return v.ok();
    }
    case CorpusCase::Kind::kConfig: {
        CfgCase cc{c.seed, c.deltas};
        CfgVerdict v = run_config_case(cc);
        if (detail) {
            *detail = cfg_kind_name(v.kind);
            if (!v.detail.empty()) *detail += ": " + v.detail;
        }
        return v.ok();
    }
    }
    return false;
}

}  // namespace rosebud::fuzz
