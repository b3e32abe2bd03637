#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace dscoh {

void EventQueue::scheduleSameTick(Tick when, Callback cb, EventPriority prio,
                                  std::uint64_t key)
{
    // The tick being drained: ordered-insert into the unexecuted tail so
    // the event still runs in its (priority, key, seq) slot relative to
    // the events not yet executed — exactly what the old global heap did.
    Entry e{when, static_cast<std::int32_t>(prio), key, seq_++,
            std::move(cb)};
    const auto tail = cur_.begin() + static_cast<std::ptrdiff_t>(curIdx_);
    cur_.insert(std::upper_bound(tail, cur_.end(), e, Earlier{}),
                std::move(e));
}

void EventQueue::scheduleFar(Tick when, Callback cb, EventPriority prio,
                             std::uint64_t key)
{
    // Far future: body goes into the store, only a {when, idx} ref is
    // sifted through the heap.
    std::uint32_t idx;
    if (!farFree_.empty()) {
        idx = farFree_.back();
        farFree_.pop_back();
        farStore_[idx] = Entry{when, static_cast<std::int32_t>(prio), key,
                               seq_++, std::move(cb)};
    } else {
        idx = static_cast<std::uint32_t>(farStore_.size());
        farStore_.emplace_back(when, static_cast<std::int32_t>(prio), key,
                               seq_++, std::move(cb));
    }
    far_.push_back(FarRef{when, idx});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
}

void EventQueue::setTieBreakShuffle(std::uint64_t seed)
{
    shuffleTies_ = seed != 0;
    if (shuffleTies_)
        tieRng_ = Rng(seed);
}

std::size_t EventQueue::nearestWheelDistance() const
{
    if (wheelCount_ == 0)
        return kWheelSlots;
    const std::size_t base = static_cast<std::size_t>(now_) & kWheelMask;
    const std::size_t baseWord = base >> 6;
    const unsigned baseBit = static_cast<unsigned>(base & 63);
    // Circular scan of the occupancy bitmap starting at `base`: the first
    // set slot is the earliest pending wheel tick, because slot order from
    // `base` is exactly when order within the [now, now + 256) window.
    for (std::size_t k = 0; k <= kBitWords; ++k) {
        const std::size_t wi = (baseWord + k) & (kBitWords - 1);
        std::uint64_t word = slotBits_[wi];
        if (k == 0)
            word &= ~0ull << baseBit; // only slots >= base
        else if (k == kBitWords)
            word &= baseBit != 0 ? (1ull << baseBit) - 1 : 0ull; // wrapped
        if (word == 0)
            continue;
        const std::size_t slot =
            (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
        return (slot - base) & kWheelMask;
    }
    assert(false && "wheelCount_ > 0 but no slot bit set");
    return kWheelSlots;
}

Tick EventQueue::nextEventTime() const
{
    assert(pendingCount() > 0);
    const std::size_t dist = nearestWheelDistance();
    const Tick wheelTime = now_ + dist;
    if (far_.empty())
        return wheelTime;
    const Tick farTime = far_.front().when;
    if (dist == kWheelSlots)
        return farTime;
    return farTime < wheelTime ? farTime : wheelTime;
}

void EventQueue::runTick(Tick t)
{
    now_ = t;
    assert(cur_.empty());
    const std::size_t slot = static_cast<std::size_t>(t) & kWheelMask;
    std::vector<Entry>& due = wheel_[slot];
    curIdx_ = 0;
    inTick_ = true;
    std::uint64_t ran = 0;
    try {
        // Single-event fast path. Message-latency chains often put exactly
        // one event on a tick, and for those the batch choreography below
        // (rotate into cur_, sort, walk) is pure overhead: execute the lone
        // callback in place. Anything it schedules for this same tick lands
        // in cur_ (ordered by construction) and the walk drains it.
        bool gathered = false;
        if (!due.empty()) {
            if (due.size() == 1 &&
                (far_.empty() || far_.front().when != t)) {
                Callback cb = std::move(due.front().cb);
                due.clear();
                slotBits_[slot >> 6] &= ~(1ull << (slot & 63));
                --wheelCount_;
                --pending_;
                ++ran;
                cb();
                gathered = true;
            }
        } else if (!far_.empty() && far_.front().when == t) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            const std::uint32_t idx = far_.back().idx;
            far_.pop_back();
            if (far_.empty() || far_.front().when != t) {
                Callback cb = std::move(farStore_[idx].cb);
                farFree_.push_back(idx);
                --pending_;
                ++ran;
                cb();
                gathered = true;
            } else {
                // More far events share the tick: keep the popped one and
                // fall through to the batch path.
                cur_.push_back(std::move(farStore_[idx]));
                farFree_.push_back(idx);
            }
        }
        if (!gathered) {
            if (!due.empty()) {
                wheelCount_ -= due.size();
                slotBits_[slot >> 6] &= ~(1ull << (slot & 63));
                // Vector buffers rotate between the slot and cur_, so
                // steady state allocates nothing.
                if (cur_.empty()) {
                    cur_.swap(due);
                } else {
                    for (Entry& e : due)
                        cur_.push_back(std::move(e));
                    due.clear();
                }
#ifndef NDEBUG
                for (const Entry& e : cur_)
                    assert(e.when == t && "wheel window invariant violated");
#endif
            }
            while (!far_.empty() && far_.front().when == t) {
                std::pop_heap(far_.begin(), far_.end(), FarLater{});
                const std::uint32_t idx = far_.back().idx;
                far_.pop_back();
                cur_.push_back(std::move(farStore_[idx]));
                farFree_.push_back(idx);
            }
            // One sort, then a linear walk. Entries are appended in
            // insertion order, so uniform-priority ticks are already sorted
            // and the insertion-sort fast path of std::sort touches nothing.
            if (cur_.size() > 1)
                std::sort(cur_.begin(), cur_.end(), Earlier{});
        }
        while (curIdx_ < cur_.size()) {
            // Move only the callback out (not the whole entry): a same-tick
            // schedule from inside it may reallocate cur_, and the local
            // keeps the closure alive across that.
            Callback cb = std::move(cur_[curIdx_].cb);
            ++curIdx_;
            --pending_;
            ++ran;
            cb();
        }
    } catch (...) {
        // Keep the unexecuted remainder runnable (the old global heap just
        // left them queued): push it back into this tick's wheel slot, which
        // nextEventTime() will find at distance zero.
        inTick_ = false;
        executed_.inc(ran);
        for (std::size_t i = curIdx_; i < cur_.size(); ++i) {
            wheel_[slot].push_back(std::move(cur_[i]));
            slotBits_[slot >> 6] |= 1ull << (slot & 63);
            ++wheelCount_;
        }
        cur_.clear();
        throw;
    }
    inTick_ = false;
    executed_.inc(ran);
    cur_.clear();
}

Tick EventQueue::run()
{
    while (pendingCount() > 0)
        runTick(nextEventTime());
    return now_;
}

Tick EventQueue::runUntil(Tick limit)
{
    while (pendingCount() > 0) {
        const Tick t = nextEventTime();
        if (t > limit)
            break;
        runTick(t);
    }
    return now_;
}

void EventQueue::clear()
{
    for (std::vector<Entry>& slot : wheel_)
        slot.clear();
    slotBits_ = {};
    wheelCount_ = 0;
    pending_ = 0;
    far_.clear();
    farStore_.clear();
    farFree_.clear();
    cur_.clear();
    curIdx_ = 0;
    inTick_ = false;
}

void EventQueue::regStats(StatRegistry& registry)
{
    registry.registerCounter("queue.schedule_calls", &scheduled_);
    registry.registerCounter("queue.executed_events", &executed_);
    registry.registerCounter("queue.peak_pending", &peakPending_);
}

} // namespace dscoh
