// FairScheduler: the service's entire multi-tenant policy, pinned as a
// pure dispatch-sequence oracle (the scheduler is deliberately lock-free
// and deterministic so these tests ARE the policy spec).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "svc/scheduler.h"

namespace dscoh::svc {
namespace {

/// Drains the scheduler, returning "<requestId>" per dispatch in order.
std::vector<std::string> drainIds(FairScheduler& s)
{
    std::vector<std::string> out;
    while (const std::optional<JobUnit> u = s.next())
        out.push_back(u->requestId);
    return out;
}

TEST(FairScheduler, SingleRequestDispatchesFifo)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("r1", "a", 0, 1, 3, &error)) << error;
    for (std::size_t i = 0; i < 3; ++i) {
        const std::optional<JobUnit> u = s.next();
        ASSERT_TRUE(u.has_value());
        EXPECT_EQ(u->requestId, "r1");
        EXPECT_EQ(u->jobIndex, i);
    }
    EXPECT_FALSE(s.next().has_value());
}

TEST(FairScheduler, EqualWeightsAlternateBetweenTenants)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("ra", "alice", 0, 1, 4, &error));
    ASSERT_TRUE(s.enqueue("rb", "bob", 0, 1, 4, &error));
    // alice starts (name tie-break), then strict alternation: each
    // dispatch pushes that tenant's virtual time ahead of the other's.
    EXPECT_EQ(drainIds(s),
              (std::vector<std::string>{"ra", "rb", "ra", "rb", "ra", "rb",
                                        "ra", "rb"}));
}

TEST(FairScheduler, WeightsSkewTheInterleaveProportionally)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("ra", "alice", 0, 3, 9, &error));
    ASSERT_TRUE(s.enqueue("rb", "bob", 0, 1, 3, &error));
    // Over any window alice (weight 3) gets ~3x bob's dispatches.
    std::map<std::string, int> inFirstEight;
    for (int i = 0; i < 8; ++i)
        ++inFirstEight[s.next()->requestId];
    EXPECT_EQ(inFirstEight["ra"], 6);
    EXPECT_EQ(inFirstEight["rb"], 2);
}

TEST(FairScheduler, PriorityOrdersRequestsWithinOneTenant)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("low", "a", 0, 1, 2, &error));
    ASSERT_TRUE(s.enqueue("high", "a", 5, 1, 2, &error));
    ASSERT_TRUE(s.enqueue("mid", "a", 2, 1, 1, &error));
    EXPECT_EQ(drainIds(s), (std::vector<std::string>{"high", "high", "mid",
                                                     "low", "low"}));
}

TEST(FairScheduler, EqualPriorityKeepsAdmissionOrder)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("first", "a", 1, 1, 1, &error));
    ASSERT_TRUE(s.enqueue("second", "a", 1, 1, 1, &error));
    EXPECT_EQ(drainIds(s), (std::vector<std::string>{"first", "second"}));
}

TEST(FairScheduler, IdleTenantDoesNotBankCredit)
{
    FairScheduler s;
    std::string error;
    // alice runs alone for a while...
    ASSERT_TRUE(s.enqueue("ra", "alice", 0, 1, 10, &error));
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(s.next().has_value());
    // ...then bob shows up. Without the virtual-clock catch-up bob would
    // monopolize dispatch for 10 units; with it the two alternate.
    ASSERT_TRUE(s.enqueue("ra2", "alice", 0, 1, 4, &error));
    ASSERT_TRUE(s.enqueue("rb", "bob", 0, 1, 4, &error));
    std::map<std::string, int> firstFour;
    for (int i = 0; i < 4; ++i)
        ++firstFour[s.next()->requestId];
    EXPECT_EQ(firstFour["ra2"], 2);
    EXPECT_EQ(firstFour["rb"], 2);
}

TEST(FairScheduler, ZeroJobRequestsAreRejected)
{
    FairScheduler s;
    std::string error;
    EXPECT_FALSE(s.enqueue("r1", "a", 0, 1, 0, &error));
}

TEST(FairScheduler, CancelDropsOnlyThatRequest)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("ra", "alice", 0, 1, 3, &error));
    ASSERT_TRUE(s.enqueue("rb", "alice", 0, 1, 2, &error));
    EXPECT_EQ(s.cancel("ra"), 3u);
    EXPECT_EQ(s.queuedJobs(), 2u);
    EXPECT_EQ(drainIds(s), (std::vector<std::string>{"rb", "rb"}));
    // Cancelling an unknown or drained request drops nothing.
    EXPECT_EQ(s.cancel("ra"), 0u);
}

TEST(FairScheduler, SharesReportQueueAndDispatchCounts)
{
    FairScheduler s;
    std::string error;
    ASSERT_TRUE(s.enqueue("ra", "alice", 0, 2, 3, &error));
    ASSERT_TRUE(s.enqueue("rb", "bob", 0, 1, 1, &error));
    ASSERT_TRUE(s.next().has_value());
    const std::vector<FairScheduler::TenantShare> shares = s.shares();
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_EQ(shares[0].tenant, "alice");
    EXPECT_EQ(shares[0].weight, 2u);
    EXPECT_EQ(shares[0].queued + shares[1].queued, 3u);
    EXPECT_EQ(shares[0].dispatched + shares[1].dispatched, 1u);
}

} // namespace
} // namespace dscoh::svc
