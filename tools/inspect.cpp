// inspect — run one benchmark in one mode and print the produce/kernel
// phase breakdown. It writes no file; for the full stats registry run
// `dscoh_run --workload CODE --size S --mode M --stats FILE`.
//   dscoh_inspect <CODE> [small|big] [ccsm|ds]
// (an unknown code, size or mode prints usage and exits 2).
// Or dump a snapshot file's header and section table (CRC-validated):
//   dscoh_inspect --snapshot file.snap     (also: a positional *.snap path)
#include <cstdio>
#include <cstring>
#include "snap/serializer.h"
#include "workloads/runner.h"
using namespace dscoh;

// Prints a snapshot's header: format version, tick, config hash, and the
// per-component section table. The CRC and structure are fully validated by
// readSnapshotHeader, so "inspect succeeded" doubles as an integrity check.
static int inspectSnapshot(const char* path) {
    try {
        const snap::SnapshotHeader h = snap::readSnapshotHeader(path);
        std::printf("%s: dscoh snapshot v%u (%llu bytes, CRC ok)\n", path,
                    h.formatVersion,
                    static_cast<unsigned long long>(h.fileBytes));
        std::printf("  tick        %llu\n",
                    static_cast<unsigned long long>(h.tick));
        std::printf("  config hash 0x%016llx\n",
                    static_cast<unsigned long long>(h.configHash));
        std::printf("  sections    %zu\n", h.sections.size());
        for (const snap::SectionInfo& s : h.sections)
            std::printf("    %-16s %10llu bytes\n", s.name.c_str(),
                        static_cast<unsigned long long>(s.bytes));
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dscoh_inspect: %s\n", e.what());
        return 1;
    }
}

// Runs one workload in one mode and prints when each phase ended.
int main(int argc, char** argv) {
    if (argc > 2 && std::strcmp(argv[1], "--snapshot") == 0)
        return inspectSnapshot(argv[2]);
    if (argc > 1) {
        const std::size_t len = std::strlen(argv[1]);
        if (len > 5 && std::strcmp(argv[1] + len - 5, ".snap") == 0)
            return inspectSnapshot(argv[1]);
    }
    const std::string code = argc > 1 ? argv[1] : "SR";
    const std::string sizeArg = argc > 2 ? argv[2] : "small";
    const std::string modeArg = argc > 3 ? argv[3] : "ccsm";
    if (!WorkloadRegistry::instance().has(code) ||
        (sizeArg != "small" && sizeArg != "big") ||
        (modeArg != "ccsm" && modeArg != "ds") || argc > 4) {
        std::fprintf(stderr,
                     "usage: dscoh_inspect [CODE [small|big] [ccsm|ds]]\n"
                     "       dscoh_inspect --snapshot FILE\n");
        return 2;
    }
    const InputSize size = sizeArg == "big" ? InputSize::kBig : InputSize::kSmall;
    const bool ds = modeArg == "ds";
    SystemConfig cfg;
    cfg.mode = ds ? CoherenceMode::kDirectStore : CoherenceMode::kCcsm;
    System sys(cfg);
    const Workload& w = WorkloadRegistry::instance().get(code);
    Workload::ArrayMap mem;
    for (const auto& a : w.arrays(size)) mem[a.name] = sys.allocateArray(a.bytes, a.gpuShared);
    const CpuProgram produce = w.cpuProduce(size, mem);
    const auto kernels = w.kernels(size, mem);
    Tick produceDone = 0;
    std::vector<Tick> kdone;
    std::size_t next = 0;
    std::function<void()> launchNext = [&]() {
        if (next >= kernels.size()) return;
        sys.launchKernel(kernels[next++], [&]{
            kdone.push_back(sys.queue().curTick());
            std::uint64_t miss = 0, acc = 0;
            for (std::size_t sl = 0; sl < sys.sliceCount(); ++sl) {
                miss += sys.slice(sl).demandMisses();
                acc += sys.slice(sl).demandAccesses();
            }
            std::printf("  [kernel %zu done: cumMiss=%llu cumAcc=%llu]\n", next,
                        static_cast<unsigned long long>(miss), static_cast<unsigned long long>(acc));
            launchNext();
        });
    };
    sys.runCpuProgram(produce, [&]{ produceDone = sys.queue().curTick(); launchNext(); });
    sys.simulate();
    std::printf("%s %s %s: produce=%llu", code.c_str(), size==InputSize::kSmall?"small":"big", ds?"DS":"CCSM",
                static_cast<unsigned long long>(produceDone));
    Tick prev = produceDone;
    for (auto t : kdone) { std::printf(" k+%llu", static_cast<unsigned long long>(t - prev)); prev = t; }
    std::printf(" total=%llu\n", static_cast<unsigned long long>(sys.queue().curTick()));
    return 0;
}
