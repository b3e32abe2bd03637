// Typed failure classes and the process exit codes they map to.
//
// The run/sweep tools translate these into distinct exit codes so scripts
// and CI can tell a wedged protocol from a broken disk from a real oracle
// violation without parsing stderr. The codes are documented in README.md
// ("Exit codes"); keep the two in sync.
#pragma once

#include <stdexcept>
#include <string>

namespace dscoh {

// Process exit codes shared by dscoh_run and dscoh_sweep.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;  ///< unclassified failure
inline constexpr int kExitUsage = 2;    ///< bad CLI flag or config file
inline constexpr int kExitDeadlock = 3; ///< --max-idle-ticks watchdog tripped
inline constexpr int kExitIo = 4;       ///< snapshot/results file I/O failure
inline constexpr int kExitOracle = 5;   ///< coherence/functional violation
inline constexpr int kExitDegraded = 7; ///< service is degraded (read-only)

/// The no-progress watchdog fired: no event executed for the idle budget
/// while work was still queued. The message names the stalled component(s)
/// (System::describeOutstandingWork).
class DeadlockError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The coherence oracle (or the functional value check) flagged the run:
/// results are untrustworthy.
class OracleError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A cooperative cancel flag was raised mid-run (deadline expiry, client
/// cancel): the run stopped early and produced no result.
class CancelledError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

} // namespace dscoh
