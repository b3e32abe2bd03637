// A cache line's worth of real data bytes.
//
// The simulator is functional as well as timing-accurate: caches and messages
// carry actual bytes so the test suite can verify that the GPU observes
// exactly the values the CPU produced, under either coherence scheme.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "sim/types.h"

namespace dscoh {

class DataBlock {
public:
    DataBlock() { bytes_.fill(0); }

    /// Writes @p size bytes of @p value (little-endian) at @p offset.
    void write(std::uint32_t offset, std::uint64_t value, std::uint32_t size)
    {
        assert(offset + size <= kLineSize);
        assert(size <= 8);
        std::memcpy(bytes_.data() + offset, &value, size);
    }

    /// Reads @p size bytes at @p offset as a little-endian integer.
    std::uint64_t read(std::uint32_t offset, std::uint32_t size) const
    {
        assert(offset + size <= kLineSize);
        assert(size <= 8);
        std::uint64_t value = 0;
        std::memcpy(&value, bytes_.data() + offset, size);
        return value;
    }

    /// Copies a byte range from another block (used for partial-line merges).
    void merge(const DataBlock& src, std::uint32_t offset, std::uint32_t size)
    {
        assert(offset + size <= kLineSize);
        std::memcpy(bytes_.data() + offset, src.bytes_.data() + offset, size);
    }

    bool operator==(const DataBlock& other) const { return bytes_ == other.bytes_; }

    const std::uint8_t* data() const { return bytes_.data(); }
    std::uint8_t* data() { return bytes_.data(); }

private:
    std::array<std::uint8_t, kLineSize> bytes_;
};

/// Byte-validity mask for a line under construction (write-combining buffers
/// and partial-line direct stores). One bit per byte.
class ByteMask {
public:
    void set(std::uint32_t offset, std::uint32_t size)
    {
        assert(offset + size <= kLineSize);
        for (std::uint32_t i = 0; i < size; ++i)
            bits_[(offset + i) >> 6] |= (1ull << ((offset + i) & 63));
    }

    bool full() const
    {
        for (const auto w : bits_)
            if (w != ~0ull)
                return false;
        return true;
    }

    bool empty() const
    {
        for (const auto w : bits_)
            if (w != 0)
                return false;
        return true;
    }

    bool test(std::uint32_t offset) const
    {
        assert(offset < kLineSize);
        return (bits_[offset >> 6] & (1ull << (offset & 63))) != 0;
    }

    std::uint32_t count() const
    {
        std::uint32_t n = 0;
        for (const auto w : bits_)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w));
        return n;
    }

    void clear() { bits_ = {}; }

    /// Ors another mask's bits into this one (mirror/validity tracking).
    void merge(const ByteMask& other)
    {
        for (std::size_t i = 0; i < bits_.size(); ++i)
            bits_[i] |= other.bits_[i];
    }

    /// Merges masked bytes of @p src into @p dst.
    void apply(DataBlock& dst, const DataBlock& src) const
    {
        for (std::uint32_t i = 0; i < kLineSize; ++i)
            if (test(i))
                dst.data()[i] = src.data()[i];
    }

    /// Raw word access, for hashing.
    static constexpr std::size_t kWords = kLineSize / 64;
    std::uint64_t word(std::size_t i) const { return bits_[i]; }

    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        for (auto& word : self.bits_)
            ar.u64(word);
    }

private:
    std::array<std::uint64_t, kLineSize / 64> bits_{};
};

} // namespace dscoh
