// Bank-aware DRAM timing model (Table I: 2 GB, 1 channel, 2 ranks, 8 banks
// @ 1 GHz). Open-page row-buffer policy with FCFS per-bank queues and a
// shared data bus. Latencies are expressed in simulator ticks (CPU cycles at
// 2 GHz, i.e. 2 ticks per DRAM cycle).
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.h"
#include "sim/inline_callback.h"
#include "sim/object_pool.h"
#include "sim/sim_object.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace dscoh {

struct DramTiming {
    // All in ticks. Defaults approximate DDR3-2133-ish timings at 1 GHz
    // (14 DRAM cycles each = 28 ticks).
    Tick tRcd = 28;  ///< row activate to column access
    Tick tCas = 28;  ///< column access to first data
    Tick tRp = 28;   ///< precharge
    Tick tBurst = 8; ///< data transfer of one 128 B line on the bus
    std::uint32_t ranks = 2;
    std::uint32_t banksPerRank = 8;
    std::uint32_t rowBytes = 2048; ///< row-buffer size per bank
};

/// DRAM access completion callback: invoked at the tick the data is available
/// (reads) or globally visible (writes). A read schedules it as the
/// completion event itself, so its capture must fit the event's buffer.
using DramCallback = InlineCallback;

/// Abstract memory channel interface: what the coherence side needs from
/// memory. Implemented by a single Dram channel and by DramPool.
class MemoryInterface {
public:
    virtual ~MemoryInterface() = default;
    virtual void read(Addr addr, DramCallback done) = 0;
    virtual void write(Addr addr, const DataBlock& data,
                       DramCallback done = {}) = 0;
    virtual void writeMasked(Addr addr, const DataBlock& data,
                             const ByteMask& mask,
                             DramCallback done = {}) = 0;
};

class Dram final : public SimObject, public MemoryInterface {
public:
    Dram(std::string name, SimContext& ctx, BackingStore& store,
         const DramTiming& timing = DramTiming{});

    /// Queues a line read. @p done is the completion event: it fires when
    /// data is ready; read the bytes from the backing store at that point.
    void read(Addr addr, DramCallback done) override;

    /// Queues a full-line write of @p data.
    void write(Addr addr, const DataBlock& data,
               DramCallback done = {}) override;

    /// Queues a masked (partial-line) write.
    void writeMasked(Addr addr, const DataBlock& data, const ByteMask& mask,
                     DramCallback done = {}) override;

    void regStats(StatRegistry& registry) override;

    std::uint32_t bankCount() const
    {
        return timing_.ranks * timing_.banksPerRank;
    }

    /// Bank/bus timing state can legitimately reach into the future at a
    /// safe point (the last access reserves the bus past its completion
    /// event), so it is serialized rather than asserted empty.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.u64(self.busFreeAt_);
        ar.expect(self.banks_.size(), "bank count");
        for (auto& bank : self.banks_) {
            ar.u64(bank.readyAt);
            ar.flag(bank.rowOpen);
            ar.u64(bank.openRow);
        }
    }

private:
    struct Bank {
        Tick readyAt = 0;   ///< when the bank can accept the next access
        bool rowOpen = false;
        std::uint64_t openRow = 0;
    };

    /// A queued write's payload (line data + mask + completion callback is
    /// far too big for an inline event capture), parked in a pooled slot so
    /// the completion event captures only the slot pointer.
    struct PendingWrite {
        Addr addr = 0;
        DataBlock data;
        ByteMask mask;
        DramCallback done;
    };

    std::uint32_t bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    /// Computes this access's completion tick and updates bank/bus state.
    Tick scheduleAccess(Addr addr);

    BackingStore& store_;
    DramTiming timing_;
    std::vector<Bank> banks_;
    Tick busFreeAt_ = 0;
    ObjectPool<PendingWrite> writePool_;

    Counter reads_;
    Counter writes_;
    Counter rowHits_;
    Counter rowMisses_;
    Histogram latency_{32, 32};
};

} // namespace dscoh
