/// \file
/// Minimal leveled logging for the simulator.
///
/// Mirrors the gem5 convention: `fatal` for user/config errors (throws,
/// callers may catch), `panic` for internal invariant violations (aborts),
/// `warn` for a status the user should see.

#ifndef ROSEBUD_SIM_LOG_H
#define ROSEBUD_SIM_LOG_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rosebud::sim {

/// Thrown by fatal(); represents an unusable user configuration.
class FatalError : public std::runtime_error {
 public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/// The simulation cannot continue due to a user error (bad config,
/// invalid arguments). Throws FatalError and prints nothing: a caller
/// that expects the rejection stays quiet, and one that does not reports
/// the message (an uncaught FatalError terminates with it).
[[noreturn]] void fatal(const std::string& msg);

/// Internal invariant violated — a simulator bug. Aborts.
[[noreturn]] void panic(const std::string& msg);

/// Something is off but the simulation can proceed.
void warn(const std::string& msg);

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_LOG_H
