#include "svc/scheduler.h"

#include <algorithm>

namespace dscoh::svc {

bool FairScheduler::enqueue(const std::string& requestId,
                            const std::string& tenant, int priority,
                            unsigned weight, std::size_t jobCount,
                            std::string* error)
{
    if (jobCount == 0) {
        *error = "request expands to zero jobs";
        return false;
    }

    auto [it, inserted] = tenants_.try_emplace(tenant);
    Tenant& t = it->second;
    if (weight >= 1)
        t.weight = weight; // latest request sets the tenant's weight
    if (inserted || t.requests.empty()) {
        // Re-entering after idling: no banked credit from the idle period.
        t.vtime = std::max(t.vtime, globalVtime_);
    }

    PendingRequest req;
    req.id = requestId;
    req.priority = priority;
    req.seq = nextSeq_++;
    for (std::size_t i = 0; i < jobCount; ++i)
        req.jobs.push_back(i);

    const auto pos = std::find_if(
        t.requests.begin(), t.requests.end(),
        [&](const PendingRequest& r) { return r.priority < priority; });
    t.requests.insert(pos, std::move(req));
    queuedJobs_ += jobCount;
    return true;
}

std::optional<JobUnit> FairScheduler::next()
{
    Tenant* best = nullptr;
    for (auto& [name, t] : tenants_) {
        if (t.requests.empty())
            continue;
        // Map iteration is name-ordered, so strict < makes the name the
        // deterministic tie-break.
        if (best == nullptr || t.vtime < best->vtime)
            best = &t;
    }
    if (best == nullptr)
        return std::nullopt;

    PendingRequest& req = best->requests.front();
    JobUnit unit{req.id, req.jobs.front()};
    req.jobs.pop_front();
    if (req.jobs.empty())
        best->requests.pop_front();
    --queuedJobs_;
    ++best->dispatched;
    best->vtime += 1.0 / static_cast<double>(best->weight);
    globalVtime_ = std::max(globalVtime_, best->vtime);
    return unit;
}

std::size_t FairScheduler::cancel(const std::string& requestId)
{
    std::size_t dropped = 0;
    for (auto& [name, t] : tenants_) {
        for (auto it = t.requests.begin(); it != t.requests.end();) {
            if (it->id == requestId) {
                dropped += it->jobs.size();
                it = t.requests.erase(it);
            } else {
                ++it;
            }
        }
    }
    queuedJobs_ -= dropped;
    return dropped;
}

std::vector<FairScheduler::TenantShare> FairScheduler::shares() const
{
    std::vector<TenantShare> out;
    out.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) {
        TenantShare s;
        s.tenant = name;
        s.weight = t.weight;
        s.queued = t.queued();
        s.dispatched = t.dispatched;
        s.virtualTime = t.vtime;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace dscoh::svc
