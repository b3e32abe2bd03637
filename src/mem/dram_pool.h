// A pool of independent DRAM channels with line-interleaved routing.
//
// Table I specifies one channel; the pool exists for the bandwidth
//-sensitivity ablation (bench/ablation_channels): several of the paper's
// effects are DRAM-bandwidth-bound, and adding channels shows which part of
// direct store's win is latency and which is bandwidth relief.
#pragma once

#include <bit>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mem/dram.h"

namespace dscoh {

class DramPool final : public MemoryInterface {
public:
    DramPool(const std::string& name, SimContext& ctx, BackingStore& store,
             const DramTiming& timing, std::uint32_t channels)
    {
        if (!takesChannels(channels))
            throw std::invalid_argument("channel count must be a power of two");
        for (std::uint32_t c = 0; c < channels; ++c)
            channels_.push_back(std::make_unique<Dram>(
                name + ".ch" + std::to_string(c), ctx, store, timing));
    }

    /// The channel is picked by masking line-number bits.
    static bool takesChannels(std::uint32_t channels)
    {
        return std::has_single_bit(channels);
    }

    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    /// The channel owning @p addr: the low line-number bits, the same bits
    /// that pick the GPU L2 slice. With as many channels as slices, slice s
    /// only ever reaches channel s.
    Dram& channelOf(Addr addr)
    {
        const std::size_t c = static_cast<std::size_t>(
            lineNumber(addr) & (channels_.size() - 1));
        return *channels_[c];
    }

    void read(Addr addr, DramCallback done) override
    {
        channelOf(addr).read(addr, std::move(done));
    }
    void write(Addr addr, const DataBlock& data,
               DramCallback done = nullptr) override
    {
        channelOf(addr).write(addr, data, std::move(done));
    }
    void writeMasked(Addr addr, const DataBlock& data, const ByteMask& mask,
                     DramCallback done = nullptr) override
    {
        channelOf(addr).writeMasked(addr, data, mask, std::move(done));
    }

    void regStats(StatRegistry& registry)
    {
        for (auto& ch : channels_)
            ch->regStats(registry);
    }

    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        for (const auto& ch : self.channels_)
            ar.nested(*ch);
    }

    /// Direct channel access for tests.
    Dram& channel(std::size_t i) { return *channels_.at(i); }

private:
    std::vector<std::unique_ptr<Dram>> channels_;
};

} // namespace dscoh
