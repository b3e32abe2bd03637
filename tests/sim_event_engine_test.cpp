// Event-engine internals: InlineCallback storage/relocation, ObjectPool
// recycling, and the EventQueue features the hot-path refactor leans on —
// far-heap scheduling beyond the wheel window, tie-break shuffle, the
// queue's own counters, and checkpointing the (seq, tie-RNG) identity so a
// restored run orders same-tick events exactly like an uninterrupted one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_callback.h"
#include "sim/object_pool.h"
#include "sim/stats.h"
#include "snap/serializer.h"

namespace dscoh {
namespace {

// --- InlineCallback -------------------------------------------------------

TEST(InlineCallback, SmallCaptureStaysInline)
{
    int hits = 0;
    int* p = &hits;
    InlineCallback cb([p] { ++*p; });
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, OversizedOrThrowingMoveCaptureDoesNotConvert)
{
    // There is no heap fallback: such a capture fails to compile at the
    // site that builds the callback.
    struct Big {
        std::uint64_t pad[12]; // 96 bytes > kInlineSize
    };
    static_assert(sizeof(Big) > InlineCallback::kInlineSize);
    auto big = [b = Big{}] { (void)b; };
    static_assert(!std::is_constructible_v<InlineCallback, decltype(big)>);

    struct ThrowingMove {
        ThrowingMove() = default;
        ThrowingMove(const ThrowingMove&) = default;
        ThrowingMove(ThrowingMove&&) noexcept(false) {}
    };
    auto throwing = [t = ThrowingMove{}] { (void)t; };
    static_assert(sizeof(throwing) <= InlineCallback::kInlineSize);
    static_assert(
        !std::is_constructible_v<InlineCallback, decltype(throwing)>);

    int* p = nullptr;
    auto small = [p] { (void)p; };
    static_assert(std::is_constructible_v<InlineCallback, decltype(small)>);
    SUCCEED();
}

TEST(InlineCallback, FitsInlineMatchesCaptureSize)
{
    int* p = nullptr;
    auto small = [p] { (void)p; };
    struct Big {
        unsigned char pad[InlineCallback::kInlineSize + 1];
    };
    Big b{};
    auto big = [b] { (void)b; };
    static_assert(InlineCallback::fitsInline<decltype(small)>());
    static_assert(!InlineCallback::fitsInline<decltype(big)>());
    SUCCEED();
}

TEST(InlineCallback, MoveTransfersOwnership)
{
    int hits = 0;
    int* p = &hits;
    InlineCallback a([p] { ++*p; });
    InlineCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: probing moved-from state
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    InlineCallback c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, NonTrivialCaptureDestroyedExactlyOnce)
{
    // shared_ptr capture exercises the non-trivial relocate/destroy path:
    // the refcount must survive moves and drop exactly once at the end.
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        InlineCallback a([token] { (void)*token; });
        token.reset();
        InlineCallback b(std::move(a));
        b();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InlineCallback, SignatureFormPassesArgumentsAndReturnsAValue)
{
    int base = 10;
    BasicInlineCallback<int(int, const std::string&)> add(
        [&base](int n, const std::string& s) {
            return base + n + static_cast<int>(s.size());
        });
    EXPECT_EQ(add(5, "abc"), 18);
    base = 0;
    EXPECT_EQ(add(1, ""), 1);

    // A reference argument reaches the callee as the caller's object.
    BasicInlineCallback<void(std::vector<int>&)> append(
        [](std::vector<int>& v) { v.push_back(7); });
    std::vector<int> seen;
    append(seen);
    append(seen);
    EXPECT_EQ(seen, (std::vector<int>{7, 7}));
}

TEST(InlineCallback, MoveOnlyCaptureStaysInlineAndMoves)
{
    auto owned = std::make_unique<int>(41);
    BasicInlineCallback<int()> a([p = std::move(owned)] { return *p + 1; });
    BasicInlineCallback<int()> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: probing moved-from state
    EXPECT_EQ(b(), 42);
}

TEST(InlineCallback, NonTrivialSignatureCaptureDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(3);
    std::weak_ptr<int> watch = token;
    {
        BasicInlineCallback<int(int)> a(
            [token](int n) { return *token * n; });
        token.reset();
        BasicInlineCallback<int(int)> b(std::move(a));
        BasicInlineCallback<int(int)> c;
        c = std::move(b);
        EXPECT_EQ(c(2), 6);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InlineCallback, SixtyFourByteTrivialCaptureStaysInline)
{
    struct Words {
        std::uint64_t w[8]; // exactly kInlineSize bytes
    };
    static_assert(sizeof(Words) == InlineCallback::kInlineSize);
    static_assert(std::is_trivially_copyable_v<Words>);
    Words words{};
    words.w[7] = 99;
    auto f = [words] { return words.w[7]; };
    static_assert(sizeof(f) == InlineCallback::kInlineSize);
    static_assert(InlineCallback::fitsInline<decltype(f)>());
    BasicInlineCallback<std::uint64_t()> cb(f);
    BasicInlineCallback<std::uint64_t()> moved(std::move(cb)); // memcpy
    EXPECT_EQ(moved(), 99u);
}

// --- ObjectPool -----------------------------------------------------------

TEST(ObjectPool, RecyclesReleasedSlots)
{
    ObjectPool<int> pool;
    int* a = pool.acquire();
    pool.release(a);
    int* b = pool.acquire();
    EXPECT_EQ(a, b);
    pool.release(b);
}

TEST(ObjectPool, CopyingAcquireAndSlotsInUse)
{
    ObjectPool<int> pool;
    int* a = pool.acquire(7);
    int* b = pool.acquire(8);
    EXPECT_EQ(*a, 7);
    EXPECT_EQ(*b, 8);
    EXPECT_EQ(pool.inUse(), 2u);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(ObjectPool, GrowsInChunksWithStablePointers)
{
    ObjectPool<std::uint64_t> pool;
    std::vector<std::uint64_t*> slots;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t* s = pool.acquire();
        *s = static_cast<std::uint64_t>(i);
        slots.push_back(s);
    }
    // All slots distinct and contents intact across growth.
    std::set<std::uint64_t*> uniq(slots.begin(), slots.end());
    EXPECT_EQ(uniq.size(), slots.size());
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(*slots[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i));
    EXPECT_GE(pool.capacity(), 1000u);
    for (std::uint64_t* s : slots)
        pool.release(s);
}

// --- EventQueue: far horizon ----------------------------------------------

TEST(EventQueue, FarFutureEventsBeyondWheelWindow)
{
    EventQueue q;
    std::vector<int> order;
    // Mix near (wheel) and far (heap) horizons, scheduled out of order.
    q.schedule(5000, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(700, [&] { order.push_back(2); });
    q.schedule(90000, [&] { order.push_back(4); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.curTick(), 90000u);
}

TEST(EventQueue, SameTickMixOfWheelAndFarOrdersByPriority)
{
    EventQueue q;
    std::vector<int> order;
    // Both land on tick 1000: one is scheduled far (>= 256 ticks out), the
    // other hops into the wheel via an intermediate event. Priority must
    // still decide the order, regardless of which container held them.
    q.schedule(1000, [&] { order.push_back(1); }, EventPriority::kCore);
    q.schedule(900, [&] {
        q.schedule(1000, [&] { order.push_back(0); },
                   EventPriority::kMessageDelivery);
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, ManyFarEventsOnOneTick)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 9; i >= 0; --i) {
        q.schedule(4096, [&order, i] { order.push_back(i); },
                   EventPriority::kDefault);
    }
    q.run();
    // Same tick, same priority: insertion order wins even through the heap.
    EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

// --- EventQueue: tie-break shuffle ----------------------------------------

std::vector<int> shuffledOrder(std::uint64_t seed)
{
    EventQueue q;
    q.setTieBreakShuffle(seed);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    return order;
}

TEST(EventQueue, TieBreakShuffleIsDeterministicPerSeed)
{
    EXPECT_EQ(shuffledOrder(1234), shuffledOrder(1234));
    EXPECT_EQ(shuffledOrder(99), shuffledOrder(99));
}

TEST(EventQueue, TieBreakShufflePermutesButKeepsEverything)
{
    const std::vector<int> base = shuffledOrder(0); // seed 0 = insertion
    std::vector<int> expect;
    for (int i = 0; i < 64; ++i)
        expect.push_back(i);
    EXPECT_EQ(base, expect);

    const std::vector<int> shuffled = shuffledOrder(7777);
    EXPECT_NE(shuffled, base);
    std::multiset<int> a(base.begin(), base.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(EventQueue, TieBreakShuffleRespectsPriority)
{
    EventQueue q;
    q.setTieBreakShuffle(42);
    std::vector<int> order;
    q.schedule(3, [&] { order.push_back(2); }, EventPriority::kCore);
    q.schedule(3, [&] { order.push_back(1); }, EventPriority::kController);
    q.schedule(3, [&] { order.push_back(0); },
               EventPriority::kMessageDelivery);
    q.run();
    // Shuffle only perturbs ties *within* a priority class.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- EventQueue: counters -------------------------------------------------

TEST(EventQueue, CountsScheduleCallsAndPeakPending)
{
    EventQueue q;
    for (int i = 0; i < 8; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.scheduleCalls(), 8u);
    EXPECT_EQ(q.peakPending(), 8u);
    q.run();
    EXPECT_EQ(q.executedEvents(), 8u);
    EXPECT_EQ(q.peakPending(), 8u); // peak survives the drain
}

TEST(EventQueue, RegStatsExposesQueueCounters)
{
    EventQueue q;
    StatRegistry reg;
    q.regStats(reg);
    q.schedule(5, [] {});
    q.run();
    ASSERT_TRUE(reg.hasCounter("queue.schedule_calls"));
    EXPECT_EQ(reg.counter("queue.schedule_calls"), 1u);
    EXPECT_EQ(reg.counter("queue.executed_events"), 1u);
    EXPECT_EQ(reg.counter("queue.peak_pending"), 1u);
}

// --- EventQueue: exception safety -----------------------------------------

TEST(EventQueue, ThrowingCallbackLeavesRemainderRunnable)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(0); },
               EventPriority::kMessageDelivery);
    q.schedule(5, [] { throw std::runtime_error("boom"); },
               EventPriority::kController);
    q.schedule(5, [&] { order.push_back(2); }, EventPriority::kCore);
    q.schedule(9, [&] { order.push_back(3); });
    EXPECT_THROW(q.run(), std::runtime_error);
    EXPECT_EQ(order, (std::vector<int>{0}));
    // The unexecuted same-tick remainder and the later event both survive.
    EXPECT_EQ(q.pending(), 2u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

// --- EventQueue: snapshot round-trip --------------------------------------

std::string tempSnapPath(const std::string& tag)
{
    return testing::TempDir() + "event_engine_" + tag + ".snap";
}

void saveQueue(const EventQueue& q, const std::string& path)
{
    snap::SnapWriter w(q.curTick(), /*configHash=*/0);
    w.beginSection("queue");
    q.snapSave(w);
    w.endSection();
    w.writeFile(path);
}

void restoreQueue(EventQueue& q, const std::string& path)
{
    snap::SnapReader r(path);
    r.openSection("queue");
    q.snapRestore(r);
    r.closeSection();
}

TEST(EventQueue, SnapSaveRejectsPendingEvents)
{
    EventQueue q;
    q.schedule(10, [] {});
    snap::SnapWriter w(q.curTick(), 0);
    w.beginSection("queue");
    EXPECT_THROW(q.snapSave(w), snap::SnapError);
}

// Drives a queue through burst A, checkpoints at the drained safe point,
// then runs burst B either on the original queue or on a fresh restored
// one. The restored queue must order burst B's same-tick ties exactly like
// the uninterrupted run — that is the (seq, tie-RNG) identity the snapshot
// format freezes.
std::vector<int> burstBOrder(std::uint64_t shuffleSeed, bool viaSnapshot)
{
    EventQueue q;
    q.setTieBreakShuffle(shuffleSeed);
    for (int i = 0; i < 20; ++i)
        q.schedule(static_cast<Tick>(100 + i % 3), [] {});
    q.run();

    EventQueue* target = &q;
    EventQueue restored;
    const std::string path = tempSnapPath(
        "burst_" + std::to_string(shuffleSeed) +
        (viaSnapshot ? "_snap" : "_ref"));
    saveQueue(q, path);
    if (viaSnapshot) {
        restoreQueue(restored, path);
        target = &restored;
    }

    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        target->schedule(500, [&order, i] { order.push_back(i); });
    target->run();
    return order;
}

TEST(EventQueue, SnapshotRoundTripPreservesTieBreakIdentity)
{
    EXPECT_EQ(burstBOrder(0, false), burstBOrder(0, true));
    EXPECT_EQ(burstBOrder(31337, false), burstBOrder(31337, true));
    // Sanity: the shuffled continuation really differs from insertion order.
    EXPECT_NE(burstBOrder(31337, true), burstBOrder(0, true));
}

TEST(EventQueue, SnapshotRoundTripPreservesClockAndCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(10 * i), [] {});
    q.run();
    const std::string path = tempSnapPath("clock");
    saveQueue(q, path);

    EventQueue fresh;
    restoreQueue(fresh, path);
    EXPECT_EQ(fresh.curTick(), q.curTick());
    EXPECT_EQ(fresh.executedEvents(), q.executedEvents());
}

} // namespace
} // namespace dscoh
