#include "sim/log.h"

namespace rosebud::sim {

void
fatal(const std::string& msg) {
    throw FatalError(msg);
}

void
panic(const std::string& msg) {
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string& msg) {
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

}  // namespace rosebud::sim
