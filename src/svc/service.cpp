#include "svc/service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/config_io.h"
#include "obs/json_lite.h"
#include "snap/serializer.h"
#include "svc/wal.h"

namespace fs = std::filesystem;

namespace dscoh::svc {

namespace {

/// Strips the trailing newline renderProgressJson() appends, for embedding
/// progress documents inside larger JSON values.
std::string chomp(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

void histogramJson(std::ostringstream& os, const char* name,
                   const Histogram& h)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"samples\": %llu, \"mean\": %.1f, "
                  "\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, "
                  "\"max\": %llu}",
                  name, static_cast<unsigned long long>(h.samples()),
                  h.mean(), h.percentile(50.0), h.percentile(90.0),
                  h.percentile(99.0),
                  static_cast<unsigned long long>(h.max()));
    os << buf;
}

} // namespace

SweepService::SweepService(const ServiceOptions& options) : opts_(options)
{
    if (opts_.stateDir.empty())
        throw std::runtime_error("sweep service: stateDir is required");
    std::error_code ec;
    for (const std::string sub : {"", "/jobs", "/cache"}) {
        fs::create_directories(opts_.stateDir + sub, ec);
        if (ec)
            throw std::runtime_error("sweep service: cannot create " +
                                     opts_.stateDir + sub + ": " +
                                     ec.message());
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        recover();
    }
    engine_ = std::make_unique<ResidentEngine>(
        opts_.workers, [this] { return pullNext(); });
}

SweepService::~SweepService()
{
    beginShutdown();
    engine_.reset(); // joins the pool
}

unsigned SweepService::workers() const
{
    return engine_ ? engine_->threads() : 0;
}

std::string SweepService::requestDir(const std::string& id) const
{
    return opts_.stateDir + "/jobs/" + id;
}

std::string SweepService::journalPath(const std::string& id) const
{
    return requestDir(id) + "/journal";
}

void SweepService::walAppendLocked(const std::string& payload)
{
    // Durable CRC-framed append; a SnapError propagates to the caller,
    // which decides between rollback (admission) and degrade (terminal).
    snap::durableAppendLine(opts_.stateDir + "/svc.journal",
                            walFrame(payload));
}

void SweepService::degradeLocked(const std::string& reason)
{
    if (degraded_)
        return;
    degraded_ = true;
    degradedReason_ = reason;
}

void SweepService::recover()
{
    // Pass 0: validate the log's framing; a torn tail (the final record of
    // a killed write, or an injected torn append) is cut off so replay
    // only trusts complete records.
    const std::string walPath = opts_.stateDir + "/svc.journal";
    WalReadResult wal = readWal(walPath);
    if (wal.truncated) {
        std::string err;
        if (!truncateWal(walPath, wal.validBytes, &err))
            throw std::runtime_error("sweep service: WAL has a torn tail (" +
                                     wal.reason +
                                     ") that cannot be cut: " + err);
    }

    // Pass 1: find every accepted request and its latest terminal event.
    std::vector<SweepRequest> accepted; // WAL order
    std::map<std::string, std::string> terminal;
    for (const std::string& payload : wal.payloads) {
        std::string err;
        const jsonlite::ValuePtr v = jsonlite::parse(payload, err);
        if (v == nullptr || !v->isObject())
            continue; // legacy torn line (pre-CRC log) — ignore
        const jsonlite::Value* ev = v->get("event");
        const jsonlite::Value* id = v->get("id");
        if (ev == nullptr || !ev->isString() || id == nullptr ||
            !id->isString())
            continue;
        if (ev->string == "accepted") {
            const jsonlite::Value* reqVal = v->get("request");
            SweepRequest r;
            std::string reqErr;
            if (reqVal == nullptr)
                continue;
            // jsonlite has no serializer; the WAL stores the request
            // pre-rendered as a string field instead.
            if (!reqVal->isString() ||
                !parseRequestJson(reqVal->string, &r, &reqErr))
                continue;
            r.id = id->string;
            accepted.push_back(std::move(r));
        } else {
            terminal[id->string] = ev->string;
        }
    }

    // Pass 2: re-admit everything with no terminal record, in WAL order,
    // so ids and scheduling order replay deterministically.
    for (SweepRequest& r : accepted) {
        // Keep nextId_ ahead of every id ever issued, terminal or not.
        unsigned long long n = 0;
        if (r.id.size() > 1 &&
            std::sscanf(r.id.c_str(), "r%llu", &n) == 1)
            nextId_ = std::max<std::uint64_t>(nextId_, n + 1);
        if (terminal.count(r.id) != 0)
            continue;
        std::string idOut, err;
        if (!admitLocked(std::move(r), /*fromWal=*/true, &idOut, &err,
                         nullptr))
            // An unreplayable request (e.g. a benchmark removed between
            // versions) is terminally failed rather than wedged forever.
            walAppendLocked("{\"event\": \"failed\", \"id\": \"" +
                            jsonEscape(idOut) + "\"}");
    }
}

bool SweepService::submit(SweepRequest r, std::string* idOut,
                          std::string* error, SubmitInfo* info)
{
    const std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) {
        *error = "service is degraded (storage failure: " + degradedReason_ +
                 "); submissions are rejected until the disk recovers";
        ++degradedRejects_;
        if (info != nullptr)
            info->degraded = true;
        return false;
    }
    if (stop_ || draining_) {
        *error = "service is shutting down";
        return false;
    }
    r.id.clear(); // ids are assigned here, never by the client
    return admitLocked(std::move(r), /*fromWal=*/false, idOut, error, info);
}

bool SweepService::admitLocked(SweepRequest r, bool fromWal,
                               std::string* idOut, std::string* error,
                               SubmitInfo* info)
{
    RequestState rs;
    *idOut = r.id;
    if (!expandJobs(r, &rs.jobs, error))
        return false;
    if (r.id.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "r%06llu",
                      static_cast<unsigned long long>(nextId_++));
        r.id = buf;
    }
    const std::string id = r.id;

    rs.hashes.reserve(rs.jobs.size());
    for (const ExperimentJob& j : rs.jobs)
        rs.hashes.push_back(configHashOf(j.config));
    rs.results.resize(rs.jobs.size());

    // Anything this request's journal already covers (recovery, or a crash
    // straight after the last job) is replayed, not re-simulated.
    const std::vector<std::size_t> pending =
        replayJournal(rs.jobs, rs.hashes, journalPath(id), &rs.results);
    rs.done = rs.jobs.size() - pending.size();
    for (const ExperimentResult& res : rs.results)
        if (res.fromJournal && !res.ok)
            ++rs.failed;
    rs.remaining = pending.size();
    rs.req = r;
    rs.admittedAt = std::chrono::steady_clock::now();
    rs.cancelFlag = std::make_shared<std::atomic<bool>>(false);

    // enqueue() numbers this request's units 0..n-1; pullNext() maps unit
    // k back to pending[k].
    if (!pending.empty() &&
        !sched_.enqueue(id, r.tenant, r.priority, r.weight, pending.size(),
                        error))
        return false;

    std::error_code ec;
    fs::create_directories(requestDir(id), ec);
    if (!fromWal) {
        try {
            snap::atomicWriteFile(requestDir(id) + "/request.json",
                                  renderRequestJson(r) + "\n");
            walAppendLocked("{\"event\": \"accepted\", \"id\": \"" +
                            jsonEscape(id) + "\", \"request\": \"" +
                            jsonEscape(renderRequestJson(r)) + "\"}");
        } catch (const snap::SnapError& e) {
            // The request is NOT durably accepted; roll the queue back and
            // reject, and flip degraded so subsequent submits fail fast.
            // (The torn WAL tail, if any, is cut on the next recovery.)
            sched_.cancel(id);
            degradeLocked(e.what());
            ++degradedRejects_;
            *error = "cannot journal the request (storage failure: " +
                     std::string(e.what()) + ")";
            if (info != nullptr)
                info->degraded = true;
            return false;
        }
    }

    auto [it, inserted] = requests_.emplace(id, std::move(rs));
    RequestState& state = it->second;
    if (state.remaining == 0) {
        // Fully covered by the journal (crash between the last journal
        // line and publication): publish immediately.
        finishLocked(id, state);
    } else {
        publishStatusLocked(id, state);
    }
    *idOut = id;
    cv_.notify_all();
    return true;
}

std::optional<ResidentEngine::Admitted> SweepService::pullNext()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (stop_)
            return std::nullopt;
        if (std::optional<JobUnit> unit = sched_.next()) {
            auto it = requests_.find(unit->requestId);
            if (it == requests_.end())
                continue; // cancelled between enqueue and dispatch
            RequestState& rs = it->second;
            // The scheduler numbers this request's units 0..n-1 in the
            // order enqueued — map unit k to the k-th pending job index.
            std::size_t jobIndex = 0, seen = 0;
            for (std::size_t i = 0; i < rs.results.size(); ++i) {
                if (rs.results[i].fromJournal)
                    continue;
                if (seen++ == unit->jobIndex) {
                    jobIndex = i;
                    break;
                }
            }
            if (rs.state == "queued") {
                rs.state = "running";
                try {
                    publishStatusLocked(unit->requestId, rs);
                } catch (const snap::SnapError& e) {
                    degradeLocked(e.what()); // status is advisory; run on
                }
            }
            ++inflight_;

            ResidentEngine::Admitted a;
            a.job = rs.jobs[jobIndex];
            a.configHash = rs.hashes[jobIndex];
            a.options.produceCacheDir = opts_.stateDir + "/cache";
            a.options.forkProduce = opts_.forkProduce;
            a.options.produceCacheMaxBytes = opts_.cacheMaxBytes;
            a.options.cancel = rs.cancelFlag.get();
            const std::string id = unit->requestId;
            a.done = [this, id, jobIndex](ExperimentResult&& r) {
                onJobDone(id, jobIndex, std::move(r));
            };
            return a;
        }
        cv_.wait(lock);
    }
}

void SweepService::onJobDone(const std::string& id, std::size_t jobIndex,
                             ExperimentResult&& r)
{
    const std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    auto it = requests_.find(id);
    if (it == requests_.end()) {
        cv_.notify_all();
        return;
    }
    RequestState& rs = it->second;

    jobLatencyMs_.sample(static_cast<std::uint64_t>(r.wallSeconds * 1e3));
    if (opts_.forkProduce) {
        if (r.produceTicksSaved > 0)
            ++cacheHits_;
        else
            ++cacheMisses_;
    }

    rs.results[jobIndex] = std::move(r);
    try {
        // Same durable append-before-count discipline as the batch engine:
        // the journal gains the line before counters advance, so a kill
        // here replays the job instead of losing it.
        snap::durableAppendLine(
            journalPath(id),
            journalLine(rs.results[jobIndex], rs.hashes[jobIndex]));
    } catch (const snap::SnapError& e) {
        // The in-memory result is still good — the request can finish; only
        // crash-replay coverage of this job is lost. Degrade so no new work
        // is accepted while the disk misbehaves.
        degradeLocked(e.what());
    }
    ++rs.done;
    if (!rs.results[jobIndex].ok)
        ++rs.failed;
    --rs.remaining;

    if (rs.remaining == 0)
        finishLocked(id, rs);
    else {
        try {
            publishStatusLocked(id, rs);
        } catch (const snap::SnapError& e) {
            degradeLocked(e.what());
        }
    }
    cv_.notify_all();
}

void SweepService::finishLocked(const std::string& id, RequestState& rs)
{
    const bool cancelled = rs.state == "cancelled";
    try {
        if (!cancelled) {
            // Order matters for crash safety: publish results first, then
            // the WAL terminal record, then dispose of the journal. A kill
            // between any two steps re-runs only replay + republication,
            // which is byte-identical by engine determinism.
            writeResultsJsonAtomic(requestDir(id) + "/results.json",
                                   rs.results);
            rs.state = rs.failed != 0 ? "failed" : "done";
        }
        walAppendLocked("{\"event\": \"" + rs.state + "\", \"id\": \"" +
                        jsonEscape(id) + "\"}");
    } catch (const snap::SnapError& e) {
        // The publication is owed, not lost: park it and let tick() retry
        // once the storage probe succeeds. In-memory state stays
        // non-terminal-looking to recovery (no terminal WAL record), which
        // is exactly right — a restart would re-admit and re-publish.
        if (!cancelled)
            rs.state = "running";
        rs.finishPending = true;
        degradeLocked(e.what());
        return;
    }
    rs.finishPending = false;
    finalizeJournal(journalPath(id), rs.failed != 0);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - rs.admittedAt)
            .count();
    requestLatencyMs_.sample(static_cast<std::uint64_t>(ms));
    try {
        publishStatusLocked(id, rs);
    } catch (const snap::SnapError& e) {
        degradeLocked(e.what()); // results are published; status is advisory
    }
}

bool SweepService::cancel(const std::string& id, std::string* error)
{
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = requests_.find(id);
    if (it == requests_.end()) {
        *error = "unknown request id '" + id + "'";
        return false;
    }
    RequestState& rs = it->second;
    if (rs.state == "done" || rs.state == "failed" ||
        rs.state == "cancelled") {
        *error = "request " + id + " is already " + rs.state;
        return false;
    }
    rs.remaining -= sched_.cancel(id);
    rs.state = "cancelled";
    rs.cancelFlag->store(true, std::memory_order_relaxed);
    if (rs.remaining == 0)
        finishLocked(id, rs); // nothing in flight: terminal now
    else {
        try {
            publishStatusLocked(id, rs); // in-flight jobs stop, then terminal
        } catch (const snap::SnapError& e) {
            degradeLocked(e.what());
        }
    }
    cv_.notify_all();
    return true;
}

void SweepService::tick()
{
    const std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_)
        return;
    // Storage probe: one small atomic write through the full hardened
    // path. While it fails the service stays read-only; once it succeeds,
    // clear the flag and retry every publication the failure interrupted.
    try {
        snap::atomicWriteFile(opts_.stateDir + "/.storage-probe", "ok\n");
    } catch (const snap::SnapError&) {
        return; // still sick
    }
    degraded_ = false;
    degradedReason_.clear();
    for (auto& [id, rs] : requests_) {
        if (!rs.finishPending)
            continue;
        finishLocked(id, rs);
        if (degraded_)
            return; // relapsed mid-retry; the rest wait for the next probe
    }
}

bool SweepService::degraded() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return degraded_;
}

ProgressSnapshot SweepService::snapshotLocked(const std::string& id,
                                              const RequestState& rs) const
{
    ProgressSnapshot s;
    s.total = rs.jobs.size();
    s.done = rs.done;
    s.failed = rs.failed;
    s.elapsedSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - rs.admittedAt)
                           .count();
    s.state = rs.state;
    s.id = id;
    s.tenant = rs.req.tenant;
    return s;
}

void SweepService::publishStatusLocked(const std::string& id,
                                       const RequestState& rs) const
{
    snap::atomicWriteFile(requestDir(id) + "/status.json",
                          renderProgressJson(snapshotLocked(id, rs)));
}

bool SweepService::statusJson(const std::string& id, std::string* out,
                              std::string* error) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = requests_.find(id);
    if (it == requests_.end()) {
        *error = "unknown request id '" + id + "'";
        return false;
    }
    *out = renderProgressJson(snapshotLocked(id, it->second));
    return true;
}

std::string SweepService::listJson() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{\"schema\": \"dscoh-svc-list-v1\", \"requests\": [";
    bool first = true;
    for (const auto& [id, rs] : requests_) {
        os << (first ? "" : ", ")
           << chomp(renderProgressJson(snapshotLocked(id, rs)));
        first = false;
    }
    os << "]}";
    return os.str();
}

std::string SweepService::statsJson() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t queued = 0, running = 0, done = 0, failed = 0,
                cancelled = 0;
    for (const auto& [id, rs] : requests_) {
        if (rs.state == "queued")
            ++queued;
        else if (rs.state == "running")
            ++running;
        else if (rs.state == "done")
            ++done;
        else if (rs.state == "failed")
            ++failed;
        else if (rs.state == "cancelled")
            ++cancelled;
    }
    std::ostringstream os;
    os << "{\"schema\": \"dscoh-svc-stats-v2\", \"queuedJobs\": "
       << sched_.queuedJobs() << ", \"runningJobs\": " << inflight_
       << ", \"workers\": " << (engine_ ? engine_->threads() : 0)
       << ", \"degraded\": " << (degraded_ ? "true" : "false");
    if (degraded_)
        os << ", \"degradedReason\": \"" << jsonEscape(degradedReason_)
           << "\"";
    os << ", \"requests\": {\"total\": " << requests_.size()
       << ", \"queued\": " << queued << ", \"running\": " << running
       << ", \"done\": " << done << ", \"failed\": " << failed
       << ", \"cancelled\": " << cancelled << "}"
       << ", \"produceCache\": {\"hits\": " << cacheHits_
       << ", \"misses\": " << cacheMisses_ << "}"
       << ", \"overload\": {\"degradedRejects\": " << degradedRejects_
       << "}";
    os << ", \"tenants\": [";
    bool first = true;
    for (const FairScheduler::TenantShare& s : sched_.shares()) {
        os << (first ? "" : ", ") << "{\"tenant\": \""
           << jsonEscape(s.tenant) << "\", \"weight\": " << s.weight
           << ", \"queued\": " << s.queued
           << ", \"dispatched\": " << s.dispatched << "}";
        first = false;
    }
    os << "], ";
    histogramJson(os, "jobLatencyMs", jobLatencyMs_);
    os << ", ";
    histogramJson(os, "requestLatencyMs", requestLatencyMs_);
    os << "}";
    return os.str();
}

void SweepService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true; // rejects new submits while we wait
    cv_.wait(lock, [this] {
        return sched_.queuedJobs() == 0 && inflight_ == 0;
    });
    // Idle reached; the service accepts work again (a drain is a fence,
    // not a shutdown — dscoh_client drain between batches must not wedge
    // the daemon).
    draining_ = false;
}

void SweepService::beginShutdown()
{
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
}

} // namespace dscoh::svc
