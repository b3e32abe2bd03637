// Sparse functional memory backing the whole simulated physical address
// space. DRAM reads/writes go through here, so data values survive cache
// evictions and the functional-correctness tests can compare end states.
#pragma once

#include <unordered_map>

#include "mem/data_block.h"
#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

class BackingStore {
public:
    explicit BackingStore(std::uint64_t capacityBytes)
        : capacity_(capacityBytes)
    {
    }

    std::uint64_t capacity() const { return capacity_; }
    bool contains(Addr a) const { return a < capacity_; }

    /// Reads the line containing @p addr (zero-filled if never written).
    const DataBlock& readLine(Addr addr) const
    {
        static const DataBlock kZero;
        const auto it = lines_.find(lineAlign(addr));
        return it == lines_.end() ? kZero : it->second;
    }

    /// Writable reference to the line containing @p addr.
    DataBlock& line(Addr addr) { return lines_[lineAlign(addr)]; }

    void writeLine(Addr addr, const DataBlock& data) { lines_[lineAlign(addr)] = data; }

    /// Merges only masked bytes into the stored line (partial DRAM write).
    void writeMasked(Addr addr, const DataBlock& data, const ByteMask& mask)
    {
        mask.apply(lines_[lineAlign(addr)], data);
    }

    std::size_t touchedLines() const { return lines_.size(); }

    /// The sparse memory image, line by line in address order.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        snap::keyed(ar, self.lines_, [](Ar& a, auto& data) {
            a.bytes(data.data(), kLineSize);
        });
    }

    /// Byte equality of the full memory image, treating never-written lines
    /// as zero (so a line explicitly written with zeros equals an untouched
    /// one). Used by the restore-determinism tests.
    bool sameImage(const BackingStore& other) const
    {
        static const DataBlock kZero;
        for (const auto& [base, data] : lines_)
            if (!(other.readLine(base) == data))
                return false;
        for (const auto& [base, data] : other.lines_)
            if (lines_.find(base) == lines_.end() && !(data == kZero))
                return false;
        return true;
    }

private:
    std::uint64_t capacity_;
    std::unordered_map<Addr, DataBlock> lines_;
};

} // namespace dscoh
