// perfbench_probe — the benchmark's in-process probe of the dscoh libraries.
//
// run.py drives the user-facing commands (dscoh_sweep, dscoh_svc) as child
// processes and measures them from outside. This helper makes the public
// library calls whose cost the benchmark attributes to single layers, and
// reports raw CLOCK_MONOTONIC timestamps (std::chrono::steady_clock on
// Linux, the clock Python's time.monotonic() reads) so run.py can place
// them on its own timeline.
//
//   perfbench_probe setup  --size S --codes A,B [--config F] --out F
//       Times the WorkloadRun constructor of every (code, mode) job, in
//       kSetupPasses passes; each instance is destroyed before the next is
//       built.
//   perfbench_probe jobs   --size S --codes A,B --workers W --snap-dir D
//                          [--config F] --out F --results F
//       Runs every job on W threads: constructor, run(), then
//       System::snapshotSave and snap::crc32 on the end state, then the
//       destructor, each timed. Queue counters (queue.*) are enabled so
//       the results document carries event counts.
//   perfbench_probe parse  --file F
//       Exit 0 when F parses with the repository's strict JSON reader.
//   perfbench_probe client --socket P [--schedule F] --out F
//       Prints "waiting" once it polls for the daemon (spawn the daemon
//       after reading it), waits for the first answered ping, then (with a
//       schedule) sends each request open loop at its due time, polls
//       the status of each open request every kPollSeconds until it is
//       terminal, reads each published results.json, fetches `stats` and
//       shuts the daemon down.
//       All socket traffic goes through svc::SvcClient::call.
//
// Jobs follow makeSweepJobs order (code-major, CCSM before DS), the order
// dscoh_sweep and the sweep service use. Exit 0 on success, 1 when a call
// fails, 2 on bad arguments.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.h"
#include "exp/experiment_engine.h"
#include "obs/json_lite.h"
#include "snap/serializer.h"
#include "svc/client.h"
#include "svc/request.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

using namespace dscoh;

namespace {

/// Constructor passes per `setup` call.
constexpr int kSetupPasses = 5;
/// Interval between status polls of the open requests, seconds.
constexpr double kPollSeconds = 0.005;

double now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

struct Args {
    std::map<std::string, std::string> named;

    bool parse(int argc, char** argv)
    {
        for (int i = 2; i < argc; i += 2) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
                std::cerr << "perfbench_probe: bad argument " << key << "\n";
                return false;
            }
            named[key.substr(2)] = argv[i + 1];
        }
        return true;
    }
    std::string get(const std::string& key, const std::string& def = "") const
    {
        const auto it = named.find(key);
        return it == named.end() ? def : it->second;
    }
};

bool makeJobs(const Args& args, std::vector<ExperimentJob>* jobs)
{
    SystemConfig cfg;
    if (const std::string path = args.get("config"); !path.empty()) {
        std::string error;
        if (!loadConfigFile(path, &cfg, &error)) {
            std::cerr << "perfbench_probe: " << error << "\n";
            return false;
        }
    }
    const std::string sizeText = args.get("size", "small");
    if (sizeText != "small" && sizeText != "big") {
        std::cerr << "perfbench_probe: bad --size " << sizeText << "\n";
        return false;
    }
    const std::string csv = args.get("codes", "all");
    std::vector<std::string> codes;
    if (csv == "all") {
        codes = WorkloadRegistry::instance().codes();
    } else {
        std::stringstream ss(csv);
        for (std::string c; std::getline(ss, c, ',');)
            codes.push_back(c);
    }
    for (const std::string& c : codes) {
        if (!WorkloadRegistry::instance().has(c)) {
            std::cerr << "perfbench_probe: unknown code " << c << "\n";
            return false;
        }
    }
    *jobs = makeSweepJobs(
        codes, {sizeText == "big" ? InputSize::kBig : InputSize::kSmall},
        {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}, cfg);
    return true;
}

const Workload& workloadOf(const ExperimentJob& job)
{
    return WorkloadRegistry::instance().get(job.code);
}

int cmdSetup(const Args& args)
{
    std::vector<ExperimentJob> jobs;
    if (!makeJobs(args, &jobs))
        return 2;
    std::ofstream out(args.get("out"));
    out.precision(17);
    out << "{\"passes\": [";
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        out << (pass == 0 ? "" : ", ") << "[";
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const ExperimentJob& job = jobs[i];
            const double t0 = now();
            auto run = std::make_unique<WorkloadRun>(
                workloadOf(job), job.size, job.mode, job.config);
            const double t1 = now();
            run.reset();
            out << (i == 0 ? "" : ", ") << t1 - t0;
        }
        out << "]";
    }
    out << "]}\n";
    return out ? 0 : 1;
}

/// Start and end (steady_clock seconds) of one timed library call.
struct Span {
    double start = 0, end = 0;
};

struct JobTiming {
    int worker = -1;
    Span setup, simulate, save, crc, teardown;
    std::uint64_t snapBytes = 0;
    std::uint32_t crc32 = 0;
};

/// Runs @p fn and records its span.
template <typename Fn> void timed(Span& span, Fn&& fn)
{
    span.start = now();
    fn();
    span.end = now();
}

void writeSpan(std::ostream& out, const char* name, const Span& s)
{
    out << ", \"" << name << "\": [" << s.start << ", " << s.end << "]";
}

int cmdJobs(const Args& args)
{
    std::vector<ExperimentJob> jobs;
    if (!makeJobs(args, &jobs))
        return 2;
    const unsigned workers =
        static_cast<unsigned>(std::stoul(args.get("workers", "1")));
    const std::string snapDir = args.get("snap-dir");
    std::vector<ExperimentResult> results(jobs.size());
    std::vector<JobTiming> timing(jobs.size());
    std::atomic<std::size_t> next{0};

    const auto worker = [&](int id) {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            const ExperimentJob& job = jobs[i];
            JobTiming& t = timing[i];
            ExperimentResult& r = results[i];
            r.job = job;
            t.worker = id;
            try {
                std::unique_ptr<WorkloadRun> run;
                timed(t.setup, [&] {
                    run = std::make_unique<WorkloadRun>(
                        workloadOf(job), job.size, job.mode, job.config);
                });
                run->system().enableQueueStats();
                timed(t.simulate, [&] { r.run = run->run(); });
                const std::string path = snapDir + "/" + job.code + "-" +
                                         to_string(job.mode) + ".snap";
                timed(t.save, [&] { run->system().snapshotSave(path); });
                const std::string bytes = readFile(path);
                std::remove(path.c_str());
                timed(t.crc, [&] {
                    t.crc32 = snap::crc32(bytes.data(), bytes.size());
                });
                t.snapBytes = bytes.size();
                timed(t.teardown, [&] { run.reset(); });
                r.ok = true;
            } catch (const std::exception& e) {
                r.ok = false;
                r.error = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker, static_cast<int>(w));
    for (std::thread& th : pool)
        th.join();

    writeResultsJsonAtomic(args.get("results"), results);
    std::ofstream out(args.get("out"));
    out.precision(17);
    out << "{\"jobs\": [";
    bool allOk = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobTiming& t = timing[i];
        const ExperimentResult& r = results[i];
        allOk = allOk && r.ok;
        out << (i == 0 ? "\n" : ",\n") << "{\"code\": \"" << jobs[i].code
            << "\", \"mode\": \"" << to_string(jobs[i].mode)
            << "\", \"ok\": " << (r.ok ? "true" : "false")
            << ", \"error\": \"" << svc::jsonEscape(r.error)
            << "\", \"worker\": " << t.worker;
        writeSpan(out, "setup", t.setup);
        writeSpan(out, "simulate", t.simulate);
        writeSpan(out, "save", t.save);
        writeSpan(out, "crc", t.crc);
        writeSpan(out, "teardown", t.teardown);
        out << ", \"snapBytes\": " << t.snapBytes << ", \"crc32\": " << t.crc32
            << ", \"produceTicks\": " << r.run.produceDoneAt << "}";
    }
    out << "\n]}\n";
    return out && allOk ? 0 : 1;
}

/// One client round trip; nullptr (with a message) on transport failure
/// or an ok:false reply.
jsonlite::ValuePtr call(const svc::SvcClient& client, const std::string& line,
                        std::string* raw = nullptr)
{
    std::string reply, error;
    if (!client.call(line, &reply, &error)) {
        std::cerr << "perfbench_probe: " << error << "\n";
        return nullptr;
    }
    jsonlite::ValuePtr v = jsonlite::parse(reply, error);
    const jsonlite::Value* ok = v != nullptr ? v->get("ok") : nullptr;
    if (ok == nullptr || ok->kind != jsonlite::Kind::kBool || !ok->boolean) {
        std::cerr << "perfbench_probe: daemon said " << reply << "\n";
        return nullptr;
    }
    if (raw != nullptr)
        *raw = reply;
    return v;
}

struct Request {
    double due = 0;   ///< offset from readiness, seconds
    std::string json; ///< rendered SweepRequest
    double sent = 0, acked = 0, running = 0, done = 0, fetched = 0;
    std::string id, dir, state;
};

int cmdClient(const Args& args)
{
    const svc::SvcClient client(args.get("socket"));

    std::vector<Request> reqs;
    if (const std::string path = args.get("schedule"); !path.empty()) {
        std::istringstream in(readFile(path));
        for (std::string line; std::getline(in, line);) {
            const std::size_t tab = line.find('\t');
            if (tab == std::string::npos)
                continue;
            Request r;
            r.due = std::stod(line.substr(0, tab));
            r.json = line.substr(tab + 1);
            reqs.push_back(std::move(r));
        }
    }

    // Readiness: the daemon answers its first ping. The caller spawns the
    // daemon only after reading this line, so polling starts first.
    std::cout << "waiting" << std::endl;
    const double waitStart = now();
    double ready = 0;
    for (;;) {
        std::string reply, error;
        if (client.call("{\"op\": \"ping\"}", &reply, &error)) {
            ready = now();
            break;
        }
        if (now() - waitStart > 60.0) {
            std::cerr << "perfbench_probe: daemon never answered: " << error
                      << "\n";
            return 1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    std::size_t next = 0, open = 0;
    double nextPoll = ready;
    while (next < reqs.size() || open != 0) {
        const double t = now();
        if (next < reqs.size() && t >= ready + reqs[next].due) {
            Request& r = reqs[next++];
            r.sent = t;
            const jsonlite::ValuePtr v = call(
                client, "{\"op\": \"submit\", \"request\": \"" +
                            svc::jsonEscape(r.json) + "\"}");
            r.acked = now();
            if (v == nullptr || v->get("id") == nullptr ||
                v->get("dir") == nullptr) {
                r.state = "rejected";
                continue;
            }
            r.id = v->get("id")->string;
            r.dir = v->get("dir")->string;
            r.state = "queued";
            ++open;
            continue;
        }
        if (open != 0 && t >= nextPoll) {
            for (Request& r : reqs) {
                if (r.state != "queued" && r.state != "running")
                    continue;
                const jsonlite::ValuePtr v = call(
                    client, "{\"op\": \"status\", \"id\": \"" + r.id + "\"}");
                const double seen = now();
                const jsonlite::Value* st =
                    v != nullptr ? v->get("status") : nullptr;
                const jsonlite::Value* stateVal =
                    st != nullptr ? st->get("state") : nullptr;
                if (stateVal == nullptr || !stateVal->isString())
                    return 1;
                const std::string& s = stateVal->string;
                if (s != "queued" && r.running == 0)
                    r.running = seen;
                r.state = s;
                if (s == "done" || s == "failed" || s == "cancelled") {
                    r.done = seen;
                    --open;
                    if (s == "done" && readFile(r.dir + "/results.json").empty())
                        r.state = "unpublished";
                    r.fetched = now();
                }
            }
            nextPoll = t + kPollSeconds;
            continue;
        }
        double wake = open != 0 ? nextPoll : 1e300;
        if (next < reqs.size())
            wake = std::min(wake, ready + reqs[next].due);
        const double sleepFor = wake - now();
        if (sleepFor > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(sleepFor));
    }

    std::string stats = "null";
    if (!reqs.empty() && call(client, "{\"op\": \"stats\"}", &stats) == nullptr)
        stats = "null";
    if (call(client, "{\"op\": \"shutdown\"}") == nullptr)
        return 1;

    std::ofstream out(args.get("out"));
    out.precision(17);
    out << "{\"ready\": " << ready << ", \"stats\": " << stats
        << ", \"requests\": [";
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request& r = reqs[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"due\": " << r.due + ready
            << ", \"sent\": " << r.sent << ", \"acked\": " << r.acked
            << ", \"running\": " << r.running << ", \"done\": " << r.done
            << ", \"fetched\": " << r.fetched << ", \"id\": \"" << r.id
            << "\", \"dir\": \"" << svc::jsonEscape(r.dir)
            << "\", \"state\": \"" << r.state << "\"}";
    }
    out << "\n]}\n";
    return out ? 0 : 1;
}

int cmdParse(const Args& args)
{
    std::string error;
    if (jsonlite::parse(readFile(args.get("file")), error) == nullptr) {
        std::cerr << "perfbench_probe: " << args.get("file") << ": " << error
                  << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Args args;
    if (argc < 2 || !args.parse(argc, argv))
        return 2;
    const std::string cmd = argv[1];
    try {
        if (cmd == "setup")
            return cmdSetup(args);
        if (cmd == "jobs")
            return cmdJobs(args);
        if (cmd == "client")
            return cmdClient(args);
        if (cmd == "parse")
            return cmdParse(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_probe: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "perfbench_probe: unknown command " << cmd << "\n";
    return 2;
}
