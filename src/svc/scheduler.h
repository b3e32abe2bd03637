// Weighted fair scheduling of sweep jobs across tenants.
//
// The service schedules at INDIVIDUAL-JOB granularity, not whole requests:
// a 44-job sweep from tenant A does not block tenant B's 4-job request for
// its whole duration — the worker pool interleaves them so every tenant
// with queued work makes progress in proportion to its weight.
//
// The policy is classic stride scheduling over a virtual clock: each
// dispatched job advances its tenant's virtual time by 1/weight, and the
// next job always comes from the backlogged tenant with the smallest
// virtual time (ties broken by tenant name, so dispatch order is fully
// deterministic). A tenant that was idle re-enters at the global virtual
// clock rather than its stale time, so sitting out does not bank credit.
// Within one tenant, requests run by priority (higher first), then
// admission order; jobs within a request stay FIFO.
//
// The scheduler is NOT thread-safe — SweepService serializes access under
// its own state mutex. Keeping it lock-free makes the policy directly
// unit-testable: feed a dispatch sequence, assert the interleaving.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dscoh::svc {

/// One schedulable unit: job @p jobIndex of request @p requestId.
struct JobUnit {
    std::string requestId;
    std::size_t jobIndex = 0;
};

class FairScheduler {
public:
    /// Admits @p jobCount job units for a request. Fails (false + @p error)
    /// for a request with no jobs; the queue is left untouched.
    bool enqueue(const std::string& requestId, const std::string& tenant,
                 int priority, unsigned weight, std::size_t jobCount,
                 std::string* error);

    /// Pops the next unit under the fairness policy, or nullopt when no
    /// work is queued. Never blocks.
    std::optional<JobUnit> next();

    /// Drops every still-queued unit of @p requestId; units already handed
    /// out by next() are the caller's problem (they run to completion).
    /// Returns how many units were dropped.
    std::size_t cancel(const std::string& requestId);

    std::size_t queuedJobs() const { return queuedJobs_; }

    /// Point-in-time share accounting for /stats.
    struct TenantShare {
        std::string tenant;
        unsigned weight = 1;
        std::size_t queued = 0;          ///< units awaiting dispatch
        std::uint64_t dispatched = 0;    ///< units handed out, lifetime
        double virtualTime = 0.0;
    };
    std::vector<TenantShare> shares() const;

private:
    struct PendingRequest {
        std::string id;
        int priority = 0;
        std::uint64_t seq = 0; ///< admission order within the tenant
        std::deque<std::size_t> jobs;
    };
    struct Tenant {
        unsigned weight = 1;
        double vtime = 0.0;
        std::uint64_t dispatched = 0;
        /// Kept sorted: priority desc, then seq asc.
        std::deque<PendingRequest> requests;
        std::size_t queued() const
        {
            std::size_t n = 0;
            for (const PendingRequest& r : requests)
                n += r.jobs.size();
            return n;
        }
    };

    std::size_t queuedJobs_ = 0;
    std::uint64_t nextSeq_ = 0;
    /// Virtual time of the most recent dispatch; idle tenants re-enter here.
    double globalVtime_ = 0.0;
    std::map<std::string, Tenant> tenants_;
};

} // namespace dscoh::svc
