// Live progress publication, shared by batch sweeps and the sweep service.
//
// A long sweep is opaque from the outside: the table prints only at the
// end, and stderr interleaves worker messages. ProgressPublisher gives
// dashboards and wrapper scripts a machine-readable view: after every
// completed job it atomically rewrites one small JSON file (temp + rename,
// via snap::atomicWriteFile), so a reader polling the path always sees a
// complete, internally consistent document — never a torn write.
//
// The "dscoh-progress-v3" schema is the one status document for BOTH
// execution modes: `dscoh_sweep --progress-json` publishes it per batch,
// and the service publishes the identical shape per request (status.json
// in the request directory, and embedded in `status` protocol responses).
// One poller/dashboard format covers batch and daemon. v2 renamed the
// counters to jobsTotal/jobsDone/jobsFailed and added state/id/tenant; v3
// dropped the v1 names (total/done/failed) v2 had kept as aliases.
//
// Rendering is split out as a pure function (renderProgressJson) so tests
// can pin the format without touching the filesystem, and so the ETA
// fields are a deterministic function of the counters — no hidden clock.
#pragma once

#include <cstddef>
#include <string>

namespace dscoh {

class JsonWriter;

/// One observation of a running batch or service request.
struct ProgressSnapshot {
    std::size_t total = 0;
    std::size_t done = 0;   ///< completed jobs, failed ones included
    std::size_t failed = 0;
    double elapsedSeconds = 0.0;

    // --- daemon-mode fields (defaulted in batch mode) ---
    /// queued | running | done | failed | cancelled. Empty = derived:
    /// "running" until done == total, then "done" or "failed" (any
    /// failures). The service sets it explicitly for queued/cancelled.
    std::string state;
    std::string id;     ///< service request id; omitted from JSON if empty
    std::string tenant; ///< submitting tenant; omitted from JSON if empty
};

/// The "dscoh-progress-v3" JSON document for @p s (one object, trailing
/// newline). jobsPerSecond/etaSeconds are 0 while no job has finished or
/// no time has passed; etaSeconds is 0 once done == total. Pure function
/// of the snapshot — bit-identical for identical inputs regardless of
/// thread count or wall clock.
std::string renderProgressJson(const ProgressSnapshot& s);

/// The same document as one value of an enclosing writer (no newline).
void writeProgressJson(JsonWriter& w, const ProgressSnapshot& s);

/// Publishes snapshots to a file. Each publish() atomically replaces the
/// whole file; throws snap::SnapError when the path is unwritable (surface
/// the error once at startup rather than silently dropping updates).
class ProgressPublisher {
public:
    explicit ProgressPublisher(std::string path) : path_(std::move(path)) {}

    const std::string& path() const { return path_; }

    void publish(const ProgressSnapshot& s) const;

private:
    std::string path_;
};

} // namespace dscoh
