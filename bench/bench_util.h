// Shared helpers for the reproduction benches and the paper's geometric
// means.
//
// The four paper reports (fig4_speedup, fig5_missrate, compulsory_misses,
// traffic_breakdown) simulate nothing: they read the Table II rows from the
// results files `dscoh_sweep small|big --json FILE` writes (loadRows).
// The ablations change the config, so they simulate their own batches
// through the parallel ExperimentEngine; they accept --jobs N (default:
// all hardware threads, or the DSCOH_JOBS environment variable). Runs are
// fully independent simulations, so results are bit-identical for any
// worker count.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/options.h"
#include "exp/experiment_engine.h"
#include "workloads/runner.h"

namespace dscoh::bench {

/// Parses a bench's argv (--jobs N plus --help). Returns false when the
/// process should exit; *exitCode then holds its status.
inline bool parseBenchArgs(int argc, char** argv, const char* name,
                           unsigned& jobsOut, int* exitCode)
{
    std::string jobsText;
    cli::OptionParser parser(name, "paper-reproduction bench");
    parser.addString("jobs", "worker threads (default: hardware threads, or "
                             "DSCOH_JOBS)", &jobsText);
    if (!parser.parse(argc, argv, std::cerr)) {
        *exitCode = 2;
        return false;
    }
    std::string error;
    if (!cli::resolveJobs(jobsText, jobsOut, error)) {
        std::cerr << name << ": " << error << "\n";
        *exitCode = 2;
        return false;
    }
    return true;
}

/// Runs a job batch through the engine; any failed run aborts the bench
/// (same contract as calling runWorkload directly had).
inline std::vector<WorkloadRunResult>
runBatch(const std::vector<ExperimentJob>& jobs, unsigned workers)
{
    ExperimentEngine engine(workers);
    const std::vector<ExperimentResult> results = engine.run(jobs);
    std::vector<WorkloadRunResult> runs;
    runs.reserve(results.size());
    for (const ExperimentResult& r : results) {
        if (!r.ok)
            throw std::runtime_error(r.job.code + " (" +
                                     to_string(r.job.size) + ", " +
                                     to_string(r.job.mode) + "): " + r.error);
        runs.push_back(r.run);
    }
    return runs;
}

struct BenchmarkRow {
    std::string code;
    WorkloadRunResult ccsm;
    WorkloadRunResult ds;

    double speedupPercent() const
    {
        if (ds.metrics.ticks == 0)
            return 0.0;
        return (static_cast<double>(ccsm.metrics.ticks) /
                    static_cast<double>(ds.metrics.ticks) -
                1.0) *
               100.0;
    }
};

/// Reads the Table II rows for @p size from a results file written by
/// `dscoh_sweep <size> --json`. The file must hold the registry's codes in
/// registry order, each CCSM then DirectStore, all at @p size, with no
/// failed run. Anything else prints "<bench>: <path>: <reason>" naming the
/// first mismatch and exits 1.
inline std::vector<BenchmarkRow> loadRows(const char* bench,
                                          const std::string& path,
                                          InputSize size)
{
    const auto refuse = [&](const std::string& why) {
        std::fprintf(stderr, "%s: %s: %s\n", bench, path.c_str(),
                     why.c_str());
        std::exit(1);
    };
    std::vector<ExperimentResult> results;
    try {
        results = readResultsJson(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", bench, e.what());
        std::exit(1);
    }
    const std::vector<ExperimentJob> want = makeSweepJobs(
        WorkloadRegistry::instance().codes(), {size},
        {CoherenceMode::kCcsm, CoherenceMode::kDirectStore});
    const auto name = [](const ExperimentJob& job) {
        return job.code + " (" + to_string(job.size) + ", " +
               to_string(job.mode) + ")";
    };
    std::vector<BenchmarkRow> rows;
    for (std::size_t i = 0; i < want.size() && i < results.size(); ++i) {
        const ExperimentResult& r = results[i];
        if (name(r.job) != name(want[i]))
            refuse("run " + std::to_string(i) + " is " + name(r.job) +
                   ", expected " + name(want[i]));
        if (!r.ok)
            refuse(r.job.code + ": " + r.error);
        if (i % 2 == 0)
            rows.push_back(BenchmarkRow{r.job.code, r.run, {}});
        else
            rows.back().ds = r.run;
    }
    if (results.size() != want.size())
        refuse("holds " + std::to_string(results.size()) + " runs, not the " +
               std::to_string(want.size()) + " of `dscoh_sweep " +
               to_string(size) + "`");
    return rows;
}

/// Loads a report's inputs: one results file per entry of @p sizes, named
/// in that order on the command line. A wrong argument count, or any
/// option, prints usage and exits 2; a bad file exits 1 (see loadRows).
inline std::vector<std::vector<BenchmarkRow>>
loadReportArgs(int argc, char** argv, const char* bench,
               const std::vector<InputSize>& sizes)
{
    bool usable = static_cast<std::size_t>(argc) == sizes.size() + 1;
    for (int i = 1; usable && i < argc; ++i)
        usable = argv[i][0] != '-';
    if (!usable) {
        std::fprintf(stderr, "usage: %s", bench);
        for (const InputSize size : sizes)
            std::fprintf(stderr, " <%s results.json>", to_string(size));
        std::fprintf(stderr, "\n  each file written by `dscoh_sweep "
                             "<size> --json FILE`\n");
        std::exit(2);
    }
    std::vector<std::vector<BenchmarkRow>> inputs;
    for (std::size_t i = 0; i < sizes.size(); ++i)
        inputs.push_back(loadRows(bench, argv[i + 1], sizes[i]));
    return inputs;
}

/// Geometric mean of the positive entries of @p percents, mirroring the
/// paper's "geometric means of all non-zero speedups". Values below the
/// threshold count as "zero" and are excluded.
inline double geomeanNonZero(const std::vector<double>& percents,
                             double thresholdPercent = 0.05)
{
    double logSum = 0.0;
    int n = 0;
    for (const double p : percents) {
        if (p > thresholdPercent) {
            logSum += std::log(p);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(logSum / n);
}

/// Geometric mean of (strictly positive) values.
inline double geomean(const std::vector<double>& values)
{
    double logSum = 0.0;
    int n = 0;
    for (const double v : values) {
        if (v > 0.0) {
            logSum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(logSum / n);
}

} // namespace dscoh::bench
