#include "exp/experiment_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/config_io.h"
#include "obs/json_lite.h"
#include "sim/errors.h"
#include "sim/json_escape.h"
#include "snap/serializer.h"

namespace dscoh {

namespace {

std::string journalKey(const std::string& code, InputSize size,
                       CoherenceMode mode, std::uint64_t configHash)
{
    std::ostringstream os;
    os << code << "|" << to_string(size) << "|" << to_string(mode) << "|"
       << std::hex << configHash;
    return os.str();
}

std::string jobCheckpointPath(const std::string& dir, const ExperimentJob& job,
                              std::uint64_t configHash)
{
    std::ostringstream os;
    os << dir << "/job-" << std::hex << std::setw(16) << std::setfill('0')
       << configHash << "-" << job.code << "-" << to_string(job.size) << "-"
       << to_string(job.mode) << ".snap";
    return os.str();
}

} // namespace

std::vector<std::size_t>
replayJournal(const std::vector<ExperimentJob>& jobs,
              const std::vector<std::uint64_t>& hashes,
              const std::string& path,
              std::vector<ExperimentResult>* results)
{
    // Matching is positional per key — a batch with duplicate (code, size,
    // mode, config) jobs consumes one journal entry per duplicate.
    std::map<std::string, std::deque<JournalEntry>> byKey;
    for (JournalEntry& e : readJournal(path))
        byKey[journalKey(e.result.job.code, e.result.job.size,
                         e.result.job.mode, e.configHash)]
            .push_back(std::move(e));
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto it = byKey.find(
            journalKey(jobs[i].code, jobs[i].size, jobs[i].mode, hashes[i]));
        if (it == byKey.end() || it->second.empty()) {
            pending.push_back(i);
            continue;
        }
        (*results)[i] = std::move(it->second.front().result);
        it->second.pop_front();
        (*results)[i].job = jobs[i];
        (*results)[i].fromJournal = true;
    }
    return pending;
}

ExperimentResult runExperimentJob(const ExperimentJob& job,
                                  std::uint64_t configHash,
                                  const JobRunOptions& options)
{
    ExperimentResult r;
    r.job = job;

    WorkloadRunOptions runOpts;
    runOpts.cancelFlag = options.cancel;
    if (options.forkProduce) {
        runOpts.produceCacheDir = options.produceCacheDir.empty()
                                      ? options.snapDir
                                      : options.produceCacheDir;
        runOpts.produceCacheMaxBytes = options.produceCacheMaxBytes;
    }
    std::string checkpoint;
    if (options.jobCheckpoint) {
        checkpoint = jobCheckpointPath(options.snapDir, job, configHash);
        runOpts.phaseCheckpointPath = checkpoint;
        if (options.resumeCheckpoint) {
            // A leftover checkpoint from a killed run resumes the job from
            // its last completed phase; anything stale or unusable silently
            // falls back to a fresh run.
            runOpts.restoreFrom = checkpoint;
            runOpts.restoreOptional = true;
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    try {
        const Workload* w = job.workload;
        if (w == nullptr)
            w = &WorkloadRegistry::instance().get(job.code);
        WorkloadRun wr(*w, job.size, job.mode, job.config,
                       std::move(runOpts));
        r.run = wr.run();
        r.produceTicksSaved = wr.produceTicksSaved();
        r.ok = true;
    } catch (const CancelledError& e) {
        r.error = e.what();
        r.errorClass = kExitFailure;
    } catch (const DeadlockError& e) {
        r.error = e.what();
        r.errorClass = kExitDeadlock;
    } catch (const OracleError& e) {
        r.error = e.what();
        r.errorClass = kExitOracle;
    } catch (const snap::SnapError& e) {
        r.error = e.what();
        r.errorClass = kExitIo;
    } catch (const std::exception& e) {
        r.error = e.what();
        r.errorClass = kExitFailure;
    } catch (...) {
        r.error = "unknown error";
        r.errorClass = kExitFailure;
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();

    if (!checkpoint.empty())
        std::remove(checkpoint.c_str());
    return r;
}

ExperimentEngine::ExperimentEngine(unsigned threads)
{
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    threads_ = threads == 0 ? 1 : threads;
}

std::vector<ExperimentResult>
ExperimentEngine::run(const std::vector<ExperimentJob>& jobs) const
{
    return run(jobs, EngineRunOptions{});
}

std::vector<ExperimentResult>
ExperimentEngine::run(const std::vector<ExperimentJob>& jobs,
                      const EngineRunOptions& options) const
{
    std::vector<ExperimentResult> results(jobs.size());
    if (jobs.empty())
        return results;

    // Force the registry's one-time construction before workers race to use
    // it; afterwards it is immutable and safe to read concurrently.
    WorkloadRegistry::instance();

    std::vector<std::uint64_t> hashes(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        hashes[i] = configHashOf(jobs[i].config);

    // Resume: replay journaled jobs instead of re-simulating them.
    std::vector<std::size_t> pending;
    std::size_t replayed = 0;
    if (options.resume && !options.journalPath.empty()) {
        pending = replayJournal(jobs, hashes, options.journalPath, &results);
        replayed = jobs.size() - pending.size();
    } else {
        pending.resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pending[i] = i;
    }

    std::atomic<std::size_t> next{0};
    std::size_t done = replayed;
    std::mutex progressMutex;
    std::mutex journalMutex;
    std::string journalError; // first append failure (under journalMutex)

    JobRunOptions jobOpts;
    jobOpts.snapDir = options.snapDir;
    jobOpts.forkProduce = options.forkProduce;
    jobOpts.jobCheckpoint = options.jobCheckpoints;
    jobOpts.resumeCheckpoint = options.resume;

    const auto worker = [&] {
        for (;;) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size())
                return;
            const std::size_t i = pending[slot];
            ExperimentResult& r = results[i];
            r = runExperimentJob(jobs[i], hashes[i], jobOpts);
            if (!options.journalPath.empty()) {
                const std::lock_guard<std::mutex> lock(journalMutex);
                // Durable append (fsync'ed, torn-safe): a kill right after
                // this returns can only replay, never corrupt. A failing
                // journal no longer silently forgets completed work — the
                // batch finishes, then run() throws with the first error
                // (workers must not throw across the pool).
                try {
                    snap::durableAppendLine(options.journalPath,
                                            journalLine(r, hashes[i]));
                } catch (const snap::SnapError& e) {
                    if (journalError.empty())
                        journalError = e.what();
                }
            }
            if (progress_) {
                const std::lock_guard<std::mutex> lock(progressMutex);
                progress_(r, ++done, jobs.size());
            }
        }
    };

    const std::size_t want = std::min<std::size_t>(threads_, pending.size());
    if (want <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(want);
        for (std::size_t t = 0; t < want; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }
    if (!journalError.empty())
        throw snap::SnapError("journal append failed: " + journalError);
    return results;
}

ResidentEngine::ResidentEngine(unsigned threads, Source source)
{
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    if (threads == 0)
        threads = 1;
    // Force the registry's one-time construction before workers race to
    // use it (same reason as the batch path).
    WorkloadRegistry::instance();
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([source] {
            while (std::optional<Admitted> a = source()) {
                ExperimentResult r = runExperimentJob(a->job, a->configHash,
                                                      a->options);
                if (a->done)
                    a->done(std::move(r));
            }
        });
}

ResidentEngine::~ResidentEngine()
{
    for (std::thread& w : workers_)
        w.join();
}

void finalizeJournal(const std::string& journalPath, bool hadFailures)
{
    if (journalPath.empty())
        return;
    if (!hadFailures) {
        std::remove(journalPath.c_str());
        return;
    }
    // Keep the failure set replayable: a later --resume against the
    // restored name can retry exactly the jobs that failed. rename(2)
    // replaces an older .failed journal atomically; syncing the directory
    // makes the disposal itself crash-durable.
    const std::string kept = journalPath + ".failed";
    std::rename(journalPath.c_str(), kept.c_str());
    try {
        snap::fsyncDir(snap::dirOf(journalPath));
    } catch (const snap::SnapError&) {
        // Disposal durability is best-effort: a re-found journal on the
        // next start only causes a harmless replay.
    }
}

std::vector<ExperimentJob>
makeSweepJobs(const std::vector<std::string>& codes,
              const std::vector<InputSize>& sizes,
              const std::vector<CoherenceMode>& modes,
              const SystemConfig& base)
{
    std::vector<ExperimentJob> jobs;
    jobs.reserve(codes.size() * sizes.size() * modes.size());
    for (const std::string& code : codes)
        for (const InputSize size : sizes)
            for (const CoherenceMode mode : modes) {
                ExperimentJob job;
                job.code = code;
                job.size = size;
                job.mode = mode;
                job.config = base;
                jobs.push_back(std::move(job));
            }
    return jobs;
}

namespace {

/// The per-job object shared by writeResultsJson() and journalLine(),
/// WITHOUT the closing brace (the journal appends resume-only fields).
void writeResultCore(std::ostream& os, const ExperimentResult& r)
{
    os << "{\"code\": \"" << jsonEscape(r.job.code) << "\""
       << ", \"size\": \"" << to_string(r.job.size) << "\""
       << ", \"mode\": \"" << to_string(r.job.mode) << "\""
       << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.ok) {
        os << ", \"error\": \"" << jsonEscape(r.error) << "\""
           << ", \"errorClass\": " << r.errorClass;
        return;
    }
    const RunMetrics& m = r.run.metrics;
    os << ", \"metrics\": {"
       << "\"ticks\": " << m.ticks
       << ", \"gpuL2Accesses\": " << m.gpuL2Accesses
       << ", \"gpuL2Misses\": " << m.gpuL2Misses
       << ", \"gpuL2Compulsory\": " << m.gpuL2Compulsory
       << ", \"gpuL2MissRate\": " << m.gpuL2MissRate
       << ", \"dsFills\": " << m.dsFills
       << ", \"dsBypasses\": " << m.dsBypasses
       << ", \"coherenceMessages\": " << m.coherenceMessages
       << ", \"coherenceBytes\": " << m.coherenceBytes
       << ", \"dsNetworkMessages\": " << m.dsNetworkMessages
       << ", \"dramReads\": " << m.dramReads
       << ", \"dramWrites\": " << m.dramWrites
       << "}, \"footprintBytes\": " << r.run.footprintBytes
       << ", \"stats\": {";
    bool firstStat = true;
    for (const auto& [name, value] : r.run.statCounters) {
        os << (firstStat ? "" : ", ") << "\"" << jsonEscape(name)
           << "\": " << value;
        firstStat = false;
    }
    os << "}";
}

} // namespace

void writeResultsJson(std::ostream& os,
                      const std::vector<ExperimentResult>& results)
{
    // schemaVersion exists so downstream plot scripts can detect format
    // drift without string-matching the schema name. v2 added the per-job
    // "stats" counter snapshot.
    os << "{\n  \"schema\": \"dscoh-results-v2\",\n  \"schemaVersion\": 2,\n"
          "  \"results\": [";
    bool first = true;
    for (const ExperimentResult& r : results) {
        os << (first ? "\n" : ",\n");
        first = false;
        // No wall-clock time here: the file must be bit-identical across
        // runs and --jobs values. Timing is reported on stderr instead.
        os << "    ";
        writeResultCore(os, r);
        os << "}";
    }
    os << "\n  ]\n}\n";
}

void writeResultsJsonAtomic(const std::string& path,
                            const std::vector<ExperimentResult>& results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    snap::atomicWriteFile(path, os.str());
}

std::string journalLine(const ExperimentResult& r, std::uint64_t configHash)
{
    std::ostringstream os;
    writeResultCore(os, r);
    os << ", \"configHash\": \"0x" << std::hex << configHash << std::dec
       << "\"";
    if (r.ok) {
        os << ", \"produceDoneAt\": " << r.run.produceDoneAt
           << ", \"kernelDoneAt\": [";
        for (std::size_t i = 0; i < r.run.kernelDoneAt.size(); ++i)
            os << (i == 0 ? "" : ", ") << r.run.kernelDoneAt[i];
        os << "], \"violations\": [";
        for (std::size_t i = 0; i < r.run.violations.size(); ++i)
            os << (i == 0 ? "" : ", ") << "\""
               << jsonEscape(r.run.violations[i]) << "\"";
        os << "]";
    }
    os << "}\n";
    return os.str();
}

std::vector<JournalEntry> readJournal(const std::string& path)
{
    std::vector<JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries;

    const auto modeOf = [](const std::string& s, CoherenceMode* out) {
        for (const CoherenceMode m :
             {CoherenceMode::kCcsm, CoherenceMode::kDirectStore,
              CoherenceMode::kDirectStoreOnly}) {
            if (s == to_string(m)) {
                *out = m;
                return true;
            }
        }
        return false;
    };

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string error;
        const jsonlite::ValuePtr v = jsonlite::parse(line, error);
        // A torn final line (process killed mid-append) parses as garbage;
        // the job it described simply re-runs.
        if (v == nullptr || !v->isObject())
            continue;
        const jsonlite::Value* code = v->get("code");
        const jsonlite::Value* size = v->get("size");
        const jsonlite::Value* mode = v->get("mode");
        const jsonlite::Value* hash = v->get("configHash");
        const jsonlite::Value* ok = v->get("ok");
        if (code == nullptr || !code->isString() || size == nullptr ||
            !size->isString() || mode == nullptr || !mode->isString() ||
            hash == nullptr || !hash->isString() || ok == nullptr)
            continue;

        JournalEntry e;
        ExperimentJob& job = e.result.job;
        job.code = code->string;
        job.size = size->string == "big" ? InputSize::kBig : InputSize::kSmall;
        if (!modeOf(mode->string, &job.mode))
            continue;
        try {
            e.configHash = std::stoull(hash->string, nullptr, 16);
        } catch (const std::exception&) {
            continue;
        }

        e.result.ok = ok->boolean;
        if (!e.result.ok) {
            if (const jsonlite::Value* err = v->get("error"))
                e.result.error = err->string;
            if (const jsonlite::Value* cls = v->get("errorClass");
                cls != nullptr && cls->isNumber())
                e.result.errorClass = static_cast<int>(cls->number);
            entries.push_back(std::move(e));
            continue;
        }

        const jsonlite::Value* metrics = v->get("metrics");
        const jsonlite::Value* stats = v->get("stats");
        if (metrics == nullptr || !metrics->isObject() || stats == nullptr ||
            !stats->isObject())
            continue;
        WorkloadRunResult& run = e.result.run;
        run.code = job.code;
        run.size = job.size;
        run.mode = job.mode;
        RunMetrics& m = run.metrics;
        const auto uintOf = [metrics](const char* key) {
            const jsonlite::Value* f = metrics->get(key);
            return f == nullptr ? std::uint64_t{0} : f->asUint();
        };
        m.ticks = uintOf("ticks");
        m.gpuL2Accesses = uintOf("gpuL2Accesses");
        m.gpuL2Misses = uintOf("gpuL2Misses");
        m.gpuL2Compulsory = uintOf("gpuL2Compulsory");
        m.dsFills = uintOf("dsFills");
        m.dsBypasses = uintOf("dsBypasses");
        m.coherenceMessages = uintOf("coherenceMessages");
        m.coherenceBytes = uintOf("coherenceBytes");
        m.dsNetworkMessages = uintOf("dsNetworkMessages");
        m.dramReads = uintOf("dramReads");
        m.dramWrites = uintOf("dramWrites");
        // Recomputed from the integer counters (not journaled as a float):
        // the division below is bit-identical to System::metrics().
        m.gpuL2MissRate = m.gpuL2Accesses == 0
                              ? 0.0
                              : static_cast<double>(m.gpuL2Misses) /
                                    static_cast<double>(m.gpuL2Accesses);
        if (const jsonlite::Value* fp = v->get("footprintBytes"))
            run.footprintBytes = fp->asUint();
        for (const auto& [name, value] : stats->object)
            run.statCounters.emplace(name, value->asUint());
        if (const jsonlite::Value* p = v->get("produceDoneAt"))
            run.produceDoneAt = p->asUint();
        if (const jsonlite::Value* k = v->get("kernelDoneAt");
            k != nullptr && k->isArray())
            for (const jsonlite::ValuePtr& t : k->array)
                run.kernelDoneAt.push_back(t->asUint());
        if (const jsonlite::Value* viol = v->get("violations");
            viol != nullptr && viol->isArray())
            for (const jsonlite::ValuePtr& s : viol->array)
                run.violations.push_back(s->string);
        entries.push_back(std::move(e));
    }
    return entries;
}

} // namespace dscoh
