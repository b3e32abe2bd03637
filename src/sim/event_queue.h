// Discrete-event simulation core.
//
// A single EventQueue drives the whole simulated machine. Events scheduled
// for the same tick are ordered by (priority, insertion sequence), which makes
// every simulation fully deterministic regardless of container iteration
// order elsewhere. The fuzzer can replace the insertion-sequence tie-break
// with a seeded random key (setTieBreakShuffle) to explore same-tick
// orderings the protocol must not depend on — still fully deterministic for
// a given seed.
//
// Engine layout (the hot path): a 256-slot timing wheel of per-tick vectors
// absorbs near-future events with an O(1) push; only events >= 256 ticks out
// fall back to a binary heap. Draining batches per tick: the due slot (plus
// any due far-heap events) becomes the current-tick vector, sorted once by
// (priority, key, seq) and executed in order; events a callback schedules
// for the tick being drained are ordered-inserted into the unexecuted tail.
// This preserves exactly the total order the old global priority_queue
// produced. Callbacks are InlineCallbacks: a capture of up to 64 bytes is
// stored in the entry itself, and a bigger one does not compile.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

/// Priorities for same-tick events. Lower value runs first.
enum class EventPriority : std::int32_t {
    kMessageDelivery = 0, ///< network message handoff to a controller
    kController = 10,     ///< cache/memory controller internal steps
    kCore = 20,           ///< CPU / SM issue logic
    kStats = 30,          ///< sampling / bookkeeping
    kDefault = 20,
};

/// Central event queue. Not thread-safe by design: the simulator is
/// single-threaded and deterministic.
class EventQueue {
public:
    using Callback = InlineCallback;

    /// Schedules @p cb to run at absolute tick @p when (>= curTick()).
    /// Inline (header-defined) on purpose: every simulated action funnels
    /// through here, and inlining lets the caller build the callback
    /// directly in the queue entry instead of moving it through a call
    /// boundary.
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::kDefault)
    {
        assert(when >= now_ && "cannot schedule into the past");
        const std::uint64_t key = shuffleTies_ ? tieRng_.next() : seq_;
        scheduled_.inc();
        if (inTick_ && when == now_) {
            scheduleSameTick(when, std::move(cb), prio, key);
        } else if (when - now_ < kWheelSlots) {
            // Near future: O(1) append to the per-tick slot, constructed in
            // place. Window invariant: every bucketed entry satisfies
            // when - now_ < kWheelSlots, so a slot only ever holds one tick.
            const std::size_t slot =
                static_cast<std::size_t>(when) & kWheelMask;
            std::vector<Entry>& vec = wheel_[slot];
            // First touch gets a real capacity up front: slots hold a
            // handful of events per tick, and the 1->2->4 doubling crawl
            // (an alloc plus an entry copy each) costs more than the one
            // reservation.
            if (vec.capacity() == 0)
                vec.reserve(16);
            vec.emplace_back(when, static_cast<std::int32_t>(prio), key,
                             seq_++, std::move(cb));
            slotBits_[slot >> 6] |= 1ull << (slot & 63);
            ++wheelCount_;
        } else {
            scheduleFar(when, std::move(cb), prio, key);
        }
        ++pending_;
        if (pending_ > peakPending_.value())
            peakPending_.set(pending_);
    }

    /// Schedules @p cb to run @p delay ticks from now.
    void scheduleAfter(Tick delay, Callback cb,
                       EventPriority prio = EventPriority::kDefault)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    /// Current simulated time.
    Tick curTick() const { return now_; }

    bool empty() const { return pendingCount() == 0; }
    std::size_t pending() const { return pendingCount(); }
    std::uint64_t executedEvents() const { return executed_.value(); }

    /// Runs until the queue drains. Returns the tick of the last event.
    Tick run();

    /// Runs until the queue drains or curTick() would exceed @p limit.
    /// Events beyond the limit stay queued. Returns current tick.
    Tick runUntil(Tick limit);

    /// Drops all pending events (used between independent simulations).
    void clear();

    /// Perturbs the ordering of same-(tick, priority) events: instead of
    /// insertion order, ties break on a per-event key drawn from an Rng
    /// seeded with @p seed (0 restores insertion order). Deterministic per
    /// seed; call before scheduling anything. Correct protocol code must
    /// produce functionally identical results under any tie-break order —
    /// the fuzzer uses this to hunt same-tick ordering assumptions.
    void setTieBreakShuffle(std::uint64_t seed);

    /// Checkpoints the queue at a safe point (must be empty — closures
    /// cannot be serialized, which is exactly why safe points require a
    /// drained queue). Saves the clock plus the insertion-sequence and
    /// tie-break-RNG state: restoring them gives every post-restore event
    /// the same (key, seq) tie-break identity it would have had in an
    /// uninterrupted run, so same-tick ordering is bit-identical.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }

    /// Registers the queue's own counters under "queue.*". Opt-in
    /// (System::enableQueueStats): the default stat set — and with it the
    /// stats JSON, results.json and snapshot bytes — stays exactly what it
    /// always was.
    void regStats(StatRegistry& registry);

    std::uint64_t scheduleCalls() const { return scheduled_.value(); }
    std::uint64_t peakPending() const { return peakPending_.value(); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if (self.pendingCount() != 0)
            throw snap::SnapError(
                Ar::kLoading
                    ? "EventQueue: restore into a non-empty queue"
                    : "EventQueue: " + std::to_string(self.pendingCount()) +
                          " pending events — snapshots only exist at drained "
                          "safe points");
        ar.u64(self.now_);
        ar.u64(self.seq_);
        ar.nested(self.executed_);
        ar.flag(self.shuffleTies_);
        ar.nested(self.tieRng_);
        // The derived counters are not part of the frozen snapshot layout.
        // schedule_calls mirrors the insertion sequence exactly; the peak
        // restarts (and is restored through the StatRegistry when registered).
        if constexpr (Ar::kLoading)
            self.scheduled_.set(self.seq_);
    }

    struct Entry {
        Tick when;
        std::int32_t prio;
        std::uint64_t key; // tie-breaker: seq, or a seeded random key
        std::uint64_t seq; // final tie-break so shuffle stays a total order
        Callback cb;
    };
    /// Far-heap element: the heap sifts these 16-byte refs instead of whole
    /// entries (the callback alone is 72 bytes), so a reheapify is a few
    /// cheap moves. Equal-when pops come out in arbitrary heap order; that
    /// is fine because every same-tick entry goes through the Earlier sort
    /// in runTick before executing.
    struct FarRef {
        Tick when;
        std::uint32_t idx; ///< slot in farStore_
    };
    struct FarLater {
        bool operator()(const FarRef& a, const FarRef& b) const
        {
            return a.when > b.when;
        }
    };
    /// Execution order within one tick (all cur_ entries share `when`).
    /// seq is unique, so this is a strict total order and the unstable
    /// std::sort in runTick is still fully deterministic.
    struct Earlier {
        bool operator()(const Entry& a, const Entry& b) const
        {
            if (a.prio != b.prio)
                return a.prio < b.prio;
            if (a.key != b.key)
                return a.key < b.key;
            return a.seq < b.seq;
        }
    };

    static constexpr std::size_t kWheelSlots = 256;
    static constexpr std::size_t kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kBitWords = kWheelSlots / 64;

    std::size_t pendingCount() const { return pending_; }

    /// Out-of-line slow paths of schedule(): ordered insert into the tick
    /// being drained, and the far-future heap.
    void scheduleSameTick(Tick when, Callback cb, EventPriority prio,
                          std::uint64_t key);
    void scheduleFar(Tick when, Callback cb, EventPriority prio,
                     std::uint64_t key);

    /// Earliest pending event time; pendingCount() must be non-zero.
    Tick nextEventTime() const;
    /// Circular distance from now_ to the first occupied wheel slot, or
    /// kWheelSlots when the wheel is empty.
    std::size_t nearestWheelDistance() const;
    /// Moves every event due at @p t into cur_ and executes the tick.
    void runTick(Tick t);

    std::array<std::vector<Entry>, kWheelSlots> wheel_;
    std::array<std::uint64_t, kBitWords> slotBits_{};
    std::size_t wheelCount_ = 0;
    std::size_t pending_ = 0; ///< total outstanding events, all containers
    std::vector<FarRef> far_;      ///< binary min-heap of refs, >= 256 out
    std::vector<Entry> farStore_;  ///< entry bodies the far heap points into
    std::vector<std::uint32_t> farFree_; ///< recycled farStore_ slots
    std::vector<Entry> cur_; ///< tick in drain, sorted ascending by Earlier
    std::size_t curIdx_ = 0; ///< next cur_ entry to execute while inTick_
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    bool shuffleTies_ = false;
    bool inTick_ = false; ///< cur_ is live: same-tick schedules go there
    Rng tieRng_{0};

    Counter executed_;
    Counter scheduled_;
    Counter peakPending_;
};

} // namespace dscoh
