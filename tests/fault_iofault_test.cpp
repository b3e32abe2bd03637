// Storage-fault injection: the IoFaultInjector's decision engine (spec
// parsing, determinism, op windows, fault caps, path filters) and the
// hardened durable-write primitives under injected faults — transient
// failures retried without duplication, ENOSPC failing fast, and crash
// faults observable in-process through the test crash handler.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/io_fault.h"
#include "snap/serializer.h"

namespace dscoh::fault {
namespace {

namespace fs = std::filesystem;

/// Uninstalls the process-level injector and crash handler on scope exit —
/// both are global, and a leak would poison every later test in the binary.
struct FaultScope {
    ~FaultScope()
    {
        clearIoFaults();
        setIoFaultCrashHandler(nullptr);
    }
};

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string tempPath(const std::string& name)
{
    const std::string p = testing::TempDir() + name;
    std::error_code ec;
    fs::remove(p, ec);
    fs::remove(p + ".tmp", ec);
    return p;
}

TEST(IoFaultSpec, ParsesEveryKeyAndRoundTrips)
{
    IoFaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseIoFaultSpec(
        "short-write-ppm=1,torn-write-ppm=2,enospc-ppm=3,eio-ppm=4,"
        "fsync-fail-ppm=5,crash-before-rename-ppm=6,"
        "crash-after-rename-ppm=7,torn-offset-pct=25,op-start=10,"
        "op-end=20,max-faults=30,seed=40,path=svc.journal",
        &cfg, &error))
        << error;
    EXPECT_EQ(cfg.shortWritePpm, 1u);
    EXPECT_EQ(cfg.tornWritePpm, 2u);
    EXPECT_EQ(cfg.enospcPpm, 3u);
    EXPECT_EQ(cfg.eioPpm, 4u);
    EXPECT_EQ(cfg.fsyncFailPpm, 5u);
    EXPECT_EQ(cfg.crashBeforeRenamePpm, 6u);
    EXPECT_EQ(cfg.crashAfterRenamePpm, 7u);
    EXPECT_EQ(cfg.tornOffsetPct, 25u);
    EXPECT_EQ(cfg.opStart, 10u);
    EXPECT_EQ(cfg.opEnd, 20u);
    EXPECT_EQ(cfg.maxFaults, 30u);
    EXPECT_EQ(cfg.seed, 40u);
    EXPECT_EQ(cfg.pathFilter, "svc.journal");
    EXPECT_TRUE(cfg.enabled());

    // render -> parse is the identity on every non-default field.
    IoFaultConfig back;
    ASSERT_TRUE(parseIoFaultSpec(renderIoFaultSpec(cfg), &back, &error))
        << error;
    EXPECT_EQ(renderIoFaultSpec(back), renderIoFaultSpec(cfg));
}

TEST(IoFaultSpec, RejectsMalformedItems)
{
    IoFaultConfig cfg;
    std::string error;
    EXPECT_FALSE(parseIoFaultSpec("torn-write-ppm", &cfg, &error));
    EXPECT_NE(error.find("key=value"), std::string::npos);
    EXPECT_FALSE(parseIoFaultSpec("eio-ppm=lots", &cfg, &error));
    EXPECT_NE(error.find("unsigned number"), std::string::npos);
    EXPECT_FALSE(parseIoFaultSpec("bogus-knob=1", &cfg, &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(IoFaultInjector, SameSeedReplaysTheSameSchedule)
{
    IoFaultConfig cfg;
    cfg.eioPpm = 300'000;
    cfg.fsyncFailPpm = 200'000;
    cfg.seed = 7;
    IoFaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.onWrite("x", 100).kind == IoFaultInjector::WriteDecision::Kind::kEio,
                  b.onWrite("x", 100).kind == IoFaultInjector::WriteDecision::Kind::kEio)
            << "diverged at op " << i;
        EXPECT_EQ(a.onFsync("x"), b.onFsync("x")) << "diverged at op " << i;
    }
    EXPECT_EQ(a.stats().injected(), b.stats().injected());
    EXPECT_GT(a.stats().injected(), 0u);
}

TEST(IoFaultInjector, WindowCapAndPathFilterGateInjection)
{
    IoFaultConfig cfg;
    cfg.eioPpm = 1'000'000; // every eligible write faults
    cfg.opStart = 2;
    cfg.opEnd = 6;
    cfg.maxFaults = 3;
    cfg.pathFilter = "journal";
    IoFaultInjector inj(cfg);

    using Kind = IoFaultInjector::WriteDecision::Kind;
    // Filtered paths never count as ops, let alone fault.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(inj.onWrite("results.json", 10).kind, Kind::kNone);
    EXPECT_EQ(inj.stats().ops, 0u);

    // Ops 0,1 are before the window; 2,3,4 fault; the cap (3) stops op 5
    // even though it is inside the window.
    std::vector<Kind> kinds;
    for (int i = 0; i < 8; ++i)
        kinds.push_back(inj.onWrite("svc.journal", 10).kind);
    EXPECT_EQ(kinds, (std::vector<Kind>{
                         Kind::kNone, Kind::kNone, Kind::kEio, Kind::kEio,
                         Kind::kEio, Kind::kNone, Kind::kNone, Kind::kNone}));
    EXPECT_EQ(inj.stats().eio, 3u);
}

TEST(DurableWrites, AtomicWriteRetriesTransientEio)
{
    FaultScope scope;
    IoFaultConfig cfg;
    cfg.eioPpm = 1'000'000;
    cfg.maxFaults = 2; // two injected failures, then the third try lands
    installIoFaults(cfg);

    const std::string path = tempPath("iofault_eio_retry");
    snap::atomicWriteFile(path, "survived\n");
    EXPECT_EQ(slurp(path), "survived\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(DurableWrites, AtomicWriteFailsFastOnEnospc)
{
    FaultScope scope;
    IoFaultConfig cfg;
    cfg.enospcPpm = 1'000'000;
    installIoFaults(cfg);

    const std::string path = tempPath("iofault_enospc");
    try {
        snap::atomicWriteFile(path, "doomed\n");
        FAIL() << "expected SnapError";
    } catch (const snap::SnapError& e) {
        EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos);
    }
    // Nothing published, nothing leaked.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(DurableWrites, AtomicWriteRetriesFsyncFailure)
{
    FaultScope scope;
    IoFaultConfig cfg;
    cfg.fsyncFailPpm = 1'000'000;
    cfg.maxFaults = 2;
    installIoFaults(cfg);

    const std::string path = tempPath("iofault_fsync_retry");
    snap::atomicWriteFile(path, "synced\n");
    EXPECT_EQ(slurp(path), "synced\n");
}

TEST(DurableWrites, AppendRetriesShortWriteWithoutDuplication)
{
    FaultScope scope;
    const std::string path = tempPath("iofault_append_short");
    snap::durableAppendLine(path, "first line\n"); // no faults yet

    IoFaultConfig cfg;
    cfg.shortWritePpm = 1'000'000;
    cfg.tornOffsetPct = 50; // half the record lands before the failure
    cfg.maxFaults = 1;
    installIoFaults(cfg);
    snap::durableAppendLine(path, "second line\n");

    // The failed attempt's prefix was rolled back (ftruncate to the
    // pre-append size) before the retry — exactly one copy of each line.
    EXPECT_EQ(slurp(path), "first line\nsecond line\n");
}

TEST(DurableWrites, CrashBeforeRenameNeverPublishes)
{
    FaultScope scope;
    const std::string path = tempPath("iofault_crash_before");
    snap::atomicWriteFile(path, "old\n");

    std::string crashedAt;
    setIoFaultCrashHandler(
        [&crashedAt](const std::string& where) { crashedAt = where; });
    IoFaultConfig cfg;
    cfg.crashBeforeRenamePpm = 1'000'000;
    cfg.maxFaults = 1;
    installIoFaults(cfg);

    // The handler returns, so the in-process contract applies: the
    // publication is reported failed, the old file survives untouched.
    EXPECT_THROW(snap::atomicWriteFile(path, "new\n"), snap::SnapError);
    EXPECT_NE(crashedAt.find("before rename"), std::string::npos);
    EXPECT_EQ(slurp(path), "old\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(DurableWrites, CrashAfterRenameHasPublished)
{
    FaultScope scope;
    const std::string path = tempPath("iofault_crash_after");
    snap::atomicWriteFile(path, "old\n");

    setIoFaultCrashHandler([](const std::string&) {});
    IoFaultConfig cfg;
    cfg.crashAfterRenamePpm = 1'000'000;
    cfg.maxFaults = 1;
    installIoFaults(cfg);

    // Crash-after-rename is on the published side of the commit point:
    // with the handler returning, the write completes and the new bytes
    // are what a post-crash reader would find.
    snap::atomicWriteFile(path, "new\n");
    EXPECT_EQ(slurp(path), "new\n");
}

TEST(DurableWrites, TornCrashLeavesAPrefixWhenTheHandlerThrows)
{
    FaultScope scope;
    struct InjectedCrash {};
    setIoFaultCrashHandler(
        [](const std::string&) -> void { throw InjectedCrash{}; });
    IoFaultConfig cfg;
    cfg.tornWritePpm = 1'000'000;
    cfg.tornOffsetPct = 50;
    cfg.maxFaults = 1;
    installIoFaults(cfg);

    const std::string path = tempPath("iofault_torn_append");
    const std::string line = "0123456789abcdef\n";
    EXPECT_THROW(snap::durableAppendLine(path, line), InjectedCrash);
    // The crash interrupted the append mid-record: what is on disk is a
    // strict prefix — the torn tail CRC framing exists to catch.
    const std::string contents = slurp(path);
    EXPECT_LT(contents.size(), line.size());
    EXPECT_EQ(contents, line.substr(0, contents.size()));
}

} // namespace
} // namespace dscoh::fault
