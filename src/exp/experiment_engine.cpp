#include "exp/experiment_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/config_io.h"
#include "obs/json_lite.h"
#include "sim/errors.h"
#include "sim/json_writer.h"
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
                                  const JobRunOptions& options)
{
    ExperimentResult r;
    r.job = job;

    WorkloadRunOptions runOpts;
    runOpts.cancelFlag = options.cancel;
    runOpts.produceCacheDir = options.produceCacheDir;

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
    jobOpts.produceCacheDir = options.produceCacheDir;

    const auto worker = [&] {
        for (;;) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size())
                return;
            const std::size_t i = pending[slot];
            ExperimentResult& r = results[i];
            r = runExperimentJob(jobs[i], jobOpts);
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
                ExperimentResult r = runExperimentJob(a->job, a->options);
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
/// left open (the journal appends resume-only fields).
void writeResultCore(JsonWriter& w, const ExperimentResult& r)
{
    w.object()
        .key("code").value(r.job.code)
        .key("size").value(to_string(r.job.size))
        .key("mode").value(to_string(r.job.mode))
        .key("ok").value(r.ok);
    if (!r.ok) {
        w.key("error").value(r.error).key("errorClass").value(r.errorClass);
        return;
    }
    const RunMetrics& m = r.run.metrics;
    w.key("metrics").object()
        .key("ticks").value(m.ticks)
        .key("gpuL2Accesses").value(m.gpuL2Accesses)
        .key("gpuL2Misses").value(m.gpuL2Misses)
        .key("gpuL2Compulsory").value(m.gpuL2Compulsory)
        .key("gpuL2MissRate").value(m.gpuL2MissRate)
        .key("dsFills").value(m.dsFills)
        .key("dsBypasses").value(m.dsBypasses)
        .key("coherenceMessages").value(m.coherenceMessages)
        .key("coherenceBytes").value(m.coherenceBytes)
        .key("dsNetworkMessages").value(m.dsNetworkMessages)
        .key("dramReads").value(m.dramReads)
        .key("dramWrites").value(m.dramWrites)
        .end();
    w.key("footprintBytes").value(r.run.footprintBytes).key("stats").object();
    for (const auto& [name, value] : r.run.statCounters)
        w.key(name).value(value);
    w.end();
}

} // namespace

void writeResultsJson(std::ostream& os,
                      const std::vector<ExperimentResult>& results)
{
    // schemaVersion exists so downstream plot scripts can detect format
    // drift without string-matching the schema name. v2 added the per-job
    // "stats" counter snapshot. No wall-clock time here: the file must be
    // bit-identical across runs and --jobs values. Timing is reported on
    // stderr instead.
    JsonWriter w(os);
    w.object(2)
        .key("schema").value("dscoh-results-v2")
        .key("schemaVersion").value(2)
        .key("results").array(4);
    for (const ExperimentResult& r : results) {
        writeResultCore(w, r);
        w.end();
    }
    w.end().end();
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
    JsonWriter w;
    writeResultCore(w, r);
    w.key("configHash").hex(configHash);
    if (r.ok) {
        w.key("produceDoneAt").value(r.run.produceDoneAt)
            .key("kernelDoneAt").array();
        for (const Tick t : r.run.kernelDoneAt)
            w.value(t);
        w.end().key("violations").array();
        for (const std::string& v : r.run.violations)
            w.value(v);
        w.end();
    }
    return w.end().take() + "\n";
}

namespace {

bool modeOf(const std::string& s, CoherenceMode* out)
{
    for (const CoherenceMode m :
         {CoherenceMode::kCcsm, CoherenceMode::kDirectStore,
          CoherenceMode::kDirectStoreOnly}) {
        if (s == to_string(m)) {
            *out = m;
            return true;
        }
    }
    return false;
}

/// Parses one per-job object of writeResultCore() (plus the journal's
/// optional produceDoneAt / kernelDoneAt / violations) into @p out. On a
/// missing or malformed field returns false and names it in @p why. Every
/// counter must be an exact integer in the range a double holds exactly;
/// gpuL2MissRate is recomputed from the integer counters, not read.
bool parseResultObject(const jsonlite::Value& v, ExperimentResult* out,
                       std::string* why)
{
    const auto bad = [why](const std::string& what) {
        *why = what;
        return false;
    };
    const jsonlite::Value* code = v.get("code");
    const jsonlite::Value* size = v.get("size");
    const jsonlite::Value* mode = v.get("mode");
    const jsonlite::Value* ok = v.get("ok");
    if (code == nullptr || !code->isString())
        return bad("missing \"code\"");
    ExperimentJob& job = out->job;
    job.code = code->string;
    if (size == nullptr || !size->isString() ||
        (size->string != "small" && size->string != "big"))
        return bad("\"size\" is not small or big");
    job.size = size->string == "big" ? InputSize::kBig : InputSize::kSmall;
    if (mode == nullptr || !mode->isString() ||
        !modeOf(mode->string, &job.mode))
        return bad("unknown \"mode\"");
    if (ok == nullptr || ok->kind != jsonlite::Kind::kBool)
        return bad("missing \"ok\"");

    out->ok = ok->boolean;
    if (!out->ok) {
        if (const jsonlite::Value* err = v.get("error"))
            out->error = err->string;
        if (const jsonlite::Value* cls = v.get("errorClass")) {
            // An exit code (sim/errors.h), so it fits in a byte.
            if (!cls->isUint() || cls->number > 255.0)
                return bad("bad \"errorClass\"");
            out->errorClass = static_cast<int>(cls->asUint());
        }
        return true;
    }

    const jsonlite::Value* metrics = v.get("metrics");
    const jsonlite::Value* stats = v.get("stats");
    if (metrics == nullptr || !metrics->isObject() || stats == nullptr ||
        !stats->isObject())
        return bad("missing \"metrics\" or \"stats\"");
    const auto uintOf = [&bad](const jsonlite::Value* f,
                               const std::string& name, std::uint64_t* dst) {
        if (f == nullptr || !f->isUint())
            return bad("\"" + name + "\" is not an unsigned integer");
        *dst = f->asUint();
        return true;
    };
    WorkloadRunResult& run = out->run;
    run.code = job.code;
    run.size = job.size;
    run.mode = job.mode;
    RunMetrics& m = run.metrics;
    for (const auto& [name, dst] :
         std::initializer_list<std::pair<const char*, std::uint64_t*>>{
             {"ticks", &m.ticks},
             {"gpuL2Accesses", &m.gpuL2Accesses},
             {"gpuL2Misses", &m.gpuL2Misses},
             {"gpuL2Compulsory", &m.gpuL2Compulsory},
             {"dsFills", &m.dsFills},
             {"dsBypasses", &m.dsBypasses},
             {"coherenceMessages", &m.coherenceMessages},
             {"coherenceBytes", &m.coherenceBytes},
             {"dsNetworkMessages", &m.dsNetworkMessages},
             {"dramReads", &m.dramReads},
             {"dramWrites", &m.dramWrites}})
        if (!uintOf(metrics->get(name), name, dst))
            return false;
    // Recomputed from the integer counters (not read back as a float): the
    // division below is bit-identical to System::metrics().
    m.gpuL2MissRate = m.gpuL2Accesses == 0
                          ? 0.0
                          : static_cast<double>(m.gpuL2Misses) /
                                static_cast<double>(m.gpuL2Accesses);
    if (!uintOf(v.get("footprintBytes"), "footprintBytes", &run.footprintBytes))
        return false;
    for (const auto& [name, value] : stats->object)
        if (!uintOf(value.get(), name, &run.statCounters[name]))
            return false;
    if (const jsonlite::Value* p = v.get("produceDoneAt");
        p != nullptr && !uintOf(p, "produceDoneAt", &run.produceDoneAt))
        return false;
    if (const jsonlite::Value* k = v.get("kernelDoneAt");
        k != nullptr && k->isArray())
        for (const jsonlite::ValuePtr& t : k->array)
            if (!uintOf(t.get(), "kernelDoneAt",
                        &run.kernelDoneAt.emplace_back()))
                return false;
    if (const jsonlite::Value* viol = v.get("violations");
        viol != nullptr && viol->isArray())
        for (const jsonlite::ValuePtr& s : viol->array)
            run.violations.push_back(s->string);
    return true;
}

} // namespace

std::vector<JournalEntry> readJournal(const std::string& path)
{
    std::vector<JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string error;
        const jsonlite::ValuePtr v = jsonlite::parse(line, error);
        // A torn final line (process killed mid-append) parses as garbage,
        // and a line with a bad field is no better; the job it described
        // simply re-runs.
        if (v == nullptr || !v->isObject())
            continue;
        const jsonlite::Value* hash = v->get("configHash");
        if (hash == nullptr || !hash->isString())
            continue;
        JournalEntry e;
        try {
            e.configHash = std::stoull(hash->string, nullptr, 16);
        } catch (const std::exception&) {
            continue;
        }
        if (!parseResultObject(*v, &e.result, &error))
            continue;
        entries.push_back(std::move(e));
    }
    return entries;
}

std::vector<ExperimentResult> readResultsJson(const std::string& path)
{
    std::string error;
    const jsonlite::ValuePtr doc = jsonlite::parseFile(path, error);
    if (doc == nullptr)
        throw std::runtime_error(error);
    const jsonlite::Value* schema = doc->get("schema");
    const jsonlite::Value* jobs = doc->get("results");
    if (schema == nullptr || schema->string != "dscoh-results-v2" ||
        jobs == nullptr || !jobs->isArray())
        throw std::runtime_error(path + ": not a dscoh-results-v2 file");
    std::vector<ExperimentResult> results(jobs->array.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        if (!parseResultObject(*jobs->array[i], &results[i], &error))
            throw std::runtime_error(path + ": job " + std::to_string(i) +
                                     ": " + error);
    return results;
}

} // namespace dscoh
