// The sweep service's unit of admission.
//
// A SweepRequest is what a tenant asks the daemon for: "run this set of
// benchmarks at this size under these modes with this config, at this
// priority, on my behalf". It is deliberately the same shape `dscoh_sweep`
// builds from its command line, so the batch CLI is a thin client: one
// request expands (expandJobs) into exactly the job list makeSweepJobs
// would produce, and the per-request results.json is byte-identical
// between embedded and daemon execution.
//
// Requests travel as single-line JSON — over the dscoh-svc-v1 socket
// protocol and embedded in the service's write-ahead journal — so
// render/parse round-trip exactly.
#pragma once

#include <string>
#include <vector>

#include "exp/experiment_engine.h"
#include "sim/json_escape.h"

namespace dscoh::svc {

struct SweepRequest {
    /// Assigned by the service at admission ("r000001", ...); empty in a
    /// not-yet-submitted request.
    std::string id;
    std::string tenant = "default";
    /// Higher runs first among a tenant's own queued requests.
    int priority = 0;
    /// This tenant's fair-share weight (>= 1): relative fraction of the
    /// worker pool while multiple tenants have queued work.
    unsigned weight = 1;
    InputSize size = InputSize::kSmall;
    /// Benchmark codes; empty = every registered benchmark.
    std::vector<std::string> codes;
    /// Coherence modes; empty = {ccsm, ds} (the Fig. 4/5 pair).
    std::vector<CoherenceMode> modes;
    /// "key = value" config lines applied over the Table I defaults
    /// (core/config_io); empty = defaults.
    std::string configText;
};

/// One line of JSON (no trailing newline), deterministic field order;
/// parseRequestJson() round-trips it exactly.
std::string renderRequestJson(const SweepRequest& r);

/// Parses a request object (from a client or the WAL). Unknown fields are
/// ignored; a malformed document or field (including a priority or weight
/// that is fractional or outside its integer type) fails with a
/// deterministic message in @p error. Does NOT validate codes/config —
/// expandJobs() does, so admission can reject with a precise reason.
bool parseRequestJson(const std::string& text, SweepRequest* out,
                      std::string* error);

/// Expands the request into the engine's job list — the same cross
/// product, in the same order, as the batch sweep (makeSweepJobs). Fails
/// (false + @p error) on an unknown benchmark code or bad config text.
bool expandJobs(const SweepRequest& r, std::vector<ExperimentJob>* jobs,
                std::string* error);

/// The shared escaper (sim/json_escape.h), also spelled svc::jsonEscape.
using dscoh::jsonEscape;

} // namespace dscoh::svc
