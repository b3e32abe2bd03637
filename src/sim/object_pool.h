// Freelist arena for payload objects held across a delay.
//
// A callback on the simulated machine must fit InlineCallback's buffer (see
// inline_callback.h), so every payload bigger than a few words (a network
// Message, a line pushed by a store, a pending DRAM write) waits in a
// pooled slot, and the callback captures only the slot pointer: a raw
// pointer, so moving an event or an MSHR target stays one memcpy. The
// callback that consumes the payload releases the slot. Slots come from
// chunked arrays owned by the pool, so steady-state simulation performs no
// allocation for them: acquire/release are a vector push/pop.
//
// acquire() hands out a *stale* slot: the caller assigns the full object.
// Slots lost to EventQueue::clear() (events dropped between independent
// simulations) simply stay owned by their chunk; the memory is reclaimed
// when the pool dies with its SimContext.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace dscoh {

template <typename T>
class ObjectPool {
public:
    ObjectPool() = default;

    ObjectPool(const ObjectPool&) = delete;
    ObjectPool& operator=(const ObjectPool&) = delete;

    /// Returns a slot with unspecified (stale) contents; assign before use.
    T* acquire()
    {
        if (free_.empty())
            grow();
        T* slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /// A slot holding a copy of @p value.
    T* acquire(const T& value)
    {
        T* slot = acquire();
        *slot = value;
        return slot;
    }

    void release(T* slot) { free_.push_back(slot); }

    /// Total slots ever created (for tests and sizing diagnostics).
    std::size_t capacity() const { return chunks_.size() * kChunk; }

    /// Slots acquired and not yet released.
    std::size_t inUse() const { return capacity() - free_.size(); }

private:
    static constexpr std::size_t kChunk = 128;

    void grow()
    {
        // for_overwrite: slots are stale by contract (assigned on acquire),
        // so value-initializing a fresh chunk would be pure memset waste.
        chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunk));
        T* base = chunks_.back().get();
        free_.reserve(free_.size() + kChunk);
        for (std::size_t i = kChunk; i > 0; --i)
            free_.push_back(base + (i - 1));
    }

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T*> free_;
};

} // namespace dscoh
