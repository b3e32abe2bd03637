// Allocation guard: the simulated machine does not allocate per event.
//
// This binary replaces the global operator new/delete with counting
// versions and counts the allocations a small Table II run makes from the
// end of WorkloadRun construction to the end of run(), per 1,000 executed
// events. Each bound is the tree's count rounded up to the next 0.01: less
// than three allocations of margin per run, below the share of any one
// payload capture that could spill to the heap, so a callback or
// container that starts allocating per event or per access fails here.
// Lower a bound when a change removes allocations. The same runs check
// that every msgPool slot is back once the run drained.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "workloads/runner.h"

namespace {

bool gCounting = false;
std::size_t gAllocations = 0;

} // namespace

void* operator new(std::size_t size)
{
    if (gCounting)
        ++gAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// Inlined into a caller, the free() below meets a pointer from operator
// new, which GCC flags although the two are this file's matching pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dscoh {
namespace {

struct Case {
    const char* code;
    CoherenceMode mode;
    double maxPer1000Events;
};

class AllocationGuard : public ::testing::TestWithParam<Case> {};

TEST_P(AllocationGuard, StaysUnderItsBoundAndReturnsEverySlot)
{
    const Case& c = GetParam();
    WorkloadRun run(WorkloadRegistry::instance().get(c.code),
                    InputSize::kSmall, c.mode);
    gAllocations = 0;
    gCounting = true;
    run.run();
    gCounting = false;
    const SimContext& ctx = run.system().context();
    const double per1000 = 1000.0 * static_cast<double>(gAllocations) /
                           static_cast<double>(ctx.queue.executedEvents());
    EXPECT_LE(per1000, c.maxPer1000Events)
        << gAllocations << " allocations over "
        << ctx.queue.executedEvents() << " events";
    EXPECT_EQ(ctx.msgPool.inUse(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Small, AllocationGuard,
    ::testing::Values(Case{"VA", CoherenceMode::kCcsm, 254.20},
                      Case{"VA", CoherenceMode::kDirectStore, 165.62},
                      Case{"NN", CoherenceMode::kCcsm, 182.98},
                      Case{"NN", CoherenceMode::kDirectStore, 73.99}),
    [](const ::testing::TestParamInfo<Case>& p) {
        return std::string(p.param.code) +
               (p.param.mode == CoherenceMode::kCcsm ? "_ccsm" : "_ds");
    });

} // namespace
} // namespace dscoh
