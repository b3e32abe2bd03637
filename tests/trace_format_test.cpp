// Trace-DSL frontend tests: parsing, expression evaluation (via observable
// behaviour), semantic validation, and full runs through the runner.
#include <gtest/gtest.h>

#include <fstream>

#include "trace/trace_format.h"
#include "workloads/runner.h"

namespace dscoh::trace {
namespace {

const char* kVectorAddTrace = R"(
# vectorAdd in trace form
name va_trace
shared-memory no

array a 8192          shared produced
array b 8192          shared produced
array c 8192 16384    shared

cpu:
  produce a
  produce b
  fence
end

kernel add blocks 8 tpb 256
  ldc a ($gid * 4) 4
  ldc b ($gid * 4) 4
  compute 2
  st  c ($gid * 4) 4 ($gid + 1)
end
)";

TEST(TraceParse, AcceptsTheReferenceTrace)
{
    const auto w = parseTrace(kVectorAddTrace);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->info().code, "va_trace");
    EXPECT_FALSE(w->info().usesSharedMemory);

    const auto arrays = w->arrays(InputSize::kSmall);
    ASSERT_EQ(arrays.size(), 3u);
    EXPECT_EQ(arrays[0].name, "a");
    EXPECT_TRUE(arrays[0].cpuProduced);
    EXPECT_EQ(arrays[2].bytes, 8192u);
    EXPECT_EQ(w->arrays(InputSize::kBig)[2].bytes, 16384u);
    EXPECT_FALSE(arrays[2].cpuProduced);
}

TEST(TraceParse, CpuProgramExpands)
{
    const auto w = parseTrace(kVectorAddTrace);
    Workload::ArrayMap mem{{"a", 0x1000}, {"b", 0x10000}, {"c", 0x20000}};
    const CpuProgram prog = w->cpuProduce(InputSize::kSmall, mem);
    // 2 arrays x 2048 element stores + fence.
    EXPECT_EQ(prog.size(), 2u * 2048 + 1);
    EXPECT_EQ(prog.back().kind, CpuOp::Kind::kFence);
    EXPECT_EQ(prog.front().kind, CpuOp::Kind::kStore);
    EXPECT_EQ(prog.front().vaddr, 0x1000u);
}

TEST(TraceRun, VectorAddTraceRunsVerifiedBothModes)
{
    const auto w = parseTrace(kVectorAddTrace);
    const auto cmp = compareModes(*w, InputSize::kSmall);
    EXPECT_EQ(cmp.ccsm.metrics.checkFailures, 0u);
    EXPECT_EQ(cmp.directStore.metrics.checkFailures, 0u);
    EXPECT_GT(cmp.directStore.metrics.dsFills, 0u);
    EXPECT_GE(cmp.speedup(), 1.0) << "pushes must help this streaming trace";
}

TEST(TraceRun, PredicatesKeepLockstepAndSelectLanes)
{
    const char* source = R"(
name predicated
array data 4096 shared produced
array out  4096 shared
cpu:
  produce data
  fence
end
kernel half blocks 1 tpb 64
  ldc data ($gid * 4) 4
  when ($tid % 2 == 0) st out ($gid * 4) 4 ($gid)
  when ($tid % 2 == 1) compute 4
end
)";
    const auto w = parseTrace(source);
    const auto r = runWorkload(*w, InputSize::kSmall,
                               CoherenceMode::kDirectStore);
    EXPECT_EQ(r.metrics.checkFailures, 0u);
}

TEST(TraceRun, MultiKernelTraceChains)
{
    const char* source = R"(
name chain
array data 2048 shared produced
cpu:
  produce data
  fence
end
kernel first blocks 2 tpb 256
  ldc data (($gid % 512) * 4) 4
end
kernel second blocks 2 tpb 256
  ld data (($gid % 512) * 4) 4
  compute 3
end
)";
    const auto w = parseTrace(source);
    Workload::ArrayMap mem{{"data", 0x4000}};
    EXPECT_EQ(w->kernels(InputSize::kSmall, mem).size(), 2u);
    const auto r = runWorkload(*w, InputSize::kSmall, CoherenceMode::kCcsm);
    EXPECT_EQ(r.metrics.checkFailures, 0u);
}

// ------------------------------------------------------------- rejection --

TEST(TraceParse, RejectsUnknownDirective)
{
    EXPECT_THROW(parseTrace("array a 64 shared\nbogus directive\n"),
                 TraceError);
}

TEST(TraceParse, RejectsUnknownArrayReference)
{
    const char* source = R"(
array a 64 shared
kernel k blocks 1 tpb 32
  ld missing ($gid) 4
end
)";
    EXPECT_THROW(parseTrace(source), TraceError);
}

TEST(TraceParse, RejectsBadKernelHeader)
{
    EXPECT_THROW(parseTrace("array a 64 shared\nkernel k blocks 1 tpb 33\nend\n"),
                 TraceError);
    EXPECT_THROW(parseTrace("array a 64 shared\nkernel k\nend\n"), TraceError);
}

TEST(TraceParse, RejectsUnterminatedSection)
{
    EXPECT_THROW(parseTrace("array a 64 shared\ncpu:\n  fence\n"), TraceError);
}

TEST(TraceParse, RejectsDuplicateArray)
{
    EXPECT_THROW(parseTrace("array a 64 shared\narray a 64 shared\n"),
                 TraceError);
}

TEST(TraceParse, RejectsBadExpression)
{
    const char* source = R"(
array a 64 shared
kernel k blocks 1 tpb 32
  ld a ($unknownvar * 4) 4
end
)";
    // Parsing succeeds; the bad variable surfaces on first evaluation.
    const auto w = parseTrace(source);
    Workload::ArrayMap mem{{"a", 0x1000}};
    const auto kernels = w->kernels(InputSize::kSmall, mem);
    ThreadBuilder t;
    EXPECT_THROW(kernels[0].body(t, 0, 0), TraceError);
}

TEST(TraceParse, OutOfBoundsAccessIsCaughtAtBuildTime)
{
    const char* source = R"(
array a 64 shared
kernel k blocks 1 tpb 32
  ld a ($gid * 64) 4
end
)";
    const auto w = parseTrace(source);
    Workload::ArrayMap mem{{"a", 0x1000}};
    const auto kernels = w->kernels(InputSize::kSmall, mem);
    ThreadBuilder t;
    kernels[0].body(t, 0, 0); // offset 0: fine
    EXPECT_THROW(kernels[0].body(t, 0, 5), std::out_of_range); // offset 320
}

TEST(TraceParse, MisalignedKernelAccessIsCaughtAtBuildTime)
{
    // A 4-byte access at line offset 126 would straddle two lines.
    for (const char* stmt : {"ldc a ($tid * 128 + 126) 4",
                             "st a ($tid * 128 + 126) 4 ($tid)"}) {
        const std::string source =
            std::string("array a 8192 shared produced\n"
                        "kernel k blocks 1 tpb 32\n  ") +
            stmt + "\nend\n";
        const auto w = parseTrace(source);
        Workload::ArrayMap mem{{"a", 0x1000}};
        const auto kernels = w->kernels(InputSize::kSmall, mem);
        ThreadBuilder t;
        try {
            kernels[0].body(t, 0, 0);
            FAIL() << "expected TraceError for: " << stmt;
        } catch (const TraceError& e) {
            const std::string what = e.what();
            EXPECT_EQ(e.line(), 3u);
            EXPECT_NE(what.find("misaligned"), std::string::npos) << what;
            EXPECT_NE(what.find("$tid * 128 + 126"), std::string::npos)
                << what;
        }
    }
}

TEST(TraceParse, MisalignedCpuAccessIsRejectedAtParse)
{
    for (const char* stmt :
         {"store a 126 4 7", "load a 126 4", "loadc a 124 8 7"}) {
        const std::string source =
            std::string("array a 8192 shared\ncpu:\n  ") + stmt + "\nend\n";
        try {
            parseTrace(source);
            FAIL() << "expected TraceError for: " << stmt;
        } catch (const TraceError& e) {
            EXPECT_EQ(e.line(), 3u);
            EXPECT_NE(std::string(e.what()).find("misaligned"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(parseTrace("array a 64 shared\ncpu:\n  load a 0 3\nend\n"),
                 TraceError);
    EXPECT_NO_THROW(
        parseTrace("array a 64 shared\ncpu:\n  loadc a 8 8 7\nend\n"));
}

/// Builds a one-load kernel whose offset is @p expr and evaluates it for
/// thread 0; the expression error must surface as a TraceError.
void expectExpressionRejected(const std::string& expr, const char* why)
{
    const std::string source = "array a 64 shared\nkernel k blocks 1 tpb "
                               "32\n  ld a (" +
                               expr + ") 4\nend\n";
    const auto w = parseTrace(source);
    Workload::ArrayMap mem{{"a", 0x1000}};
    const auto kernels = w->kernels(InputSize::kSmall, mem);
    ThreadBuilder t;
    try {
        kernels[0].body(t, 0, 0);
        FAIL() << "expected TraceError for: " << expr;
    } catch (const TraceError& e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

TEST(TraceParse, RejectsShiftCountOutOfRange)
{
    expectExpressionRejected("$tid << 70", "shift count 70");
    expectExpressionRejected("1 << 64", "shift count 64");
    expectExpressionRejected("4 >> -1", "shift count -1");
}

TEST(TraceParse, RejectsLeftShiftOverflow)
{
    expectExpressionRejected("1 << 63", "overflow");
    expectExpressionRejected("(0 - 3) << 62", "overflow");
}

TEST(TraceParse, RejectsAdditionOverflow)
{
    expectExpressionRejected("9223372036854775807 + $tid + 1", "overflow");
}

TEST(TraceParse, RejectsSubtractionOverflow)
{
    expectExpressionRejected("-9223372036854775807 - 2", "overflow");
}

TEST(TraceParse, RejectsMultiplicationOverflow)
{
    expectExpressionRejected("4294967296 * 4294967296", "overflow");
}

TEST(TraceParse, RejectsNegationOverflow)
{
    expectExpressionRejected("-(-9223372036854775807 - 1)", "overflow");
}

TEST(TraceParse, RejectsDivisionOverflow)
{
    expectExpressionRejected("(-9223372036854775807 - 1) / -1", "overflow");
    expectExpressionRejected("(-9223372036854775807 - 1) % -1", "overflow");
}

TEST(TraceParse, ShiftsAndComparisonsStillEvaluate)
{
    // In-range shifts and a comparison at the very end of an expression
    // (the token after it is the final EOF) evaluate as before.
    const char* source = R"(
array a 4096 shared
kernel k blocks 1 tpb 32
  when ($tid >= 31) st a (($tid << 3) >> 1) 4 ((0 - 8) >> 2)
end
)";
    const auto w = parseTrace(source);
    Workload::ArrayMap mem{{"a", 0x1000}};
    const auto kernels = w->kernels(InputSize::kSmall, mem);
    ThreadBuilder t;
    kernels[0].body(t, 0, 30);
    kernels[0].body(t, 0, 31);
    ASSERT_EQ(t.ops().size(), 2u);
    EXPECT_EQ(t.ops()[0].kind, GpuOp::Kind::kNop);
    EXPECT_EQ(t.ops()[1].kind, GpuOp::Kind::kStore);
    EXPECT_EQ(t.ops()[1].vaddr, 0x1000u + 31 * 4);
    EXPECT_EQ(t.ops()[1].value, static_cast<std::uint64_t>(-2));
}

TEST(TraceParse, ErrorsCarryLineNumbers)
{
    try {
        parseTrace("name x\narray a 64 shared\nwat\n");
        FAIL() << "expected TraceError";
    } catch (const TraceError& e) {
        EXPECT_EQ(e.line(), 3u);
        EXPECT_NE(std::string(e.what()).find("trace:3"), std::string::npos);
    }
}

TEST(TraceFile, LoadsFromDisk)
{
    const std::string path = "/tmp/dscoh_test_trace.trace";
    {
        std::ofstream out(path);
        out << kVectorAddTrace;
    }
    const auto w = loadTraceFile(path);
    EXPECT_EQ(w->info().code, "va_trace");
    EXPECT_THROW(loadTraceFile("/nonexistent/file.trace"), std::runtime_error);
}

} // namespace
} // namespace dscoh::trace
