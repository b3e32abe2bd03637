#include "mem/dram.h"

#include <algorithm>
#include <utility>

namespace dscoh {

Dram::Dram(std::string name, SimContext& ctx, BackingStore& store,
           const DramTiming& timing)
    : SimObject(std::move(name), ctx), store_(store), timing_(timing),
      banks_(timing.ranks * timing.banksPerRank)
{
}

std::uint32_t Dram::bankOf(Addr addr) const
{
    // Interleave banks on line-number low bits so sequential streams hit all
    // banks, the usual XOR-free mapping for open-page DRAM.
    return static_cast<std::uint32_t>(lineNumber(addr) % bankCount());
}

std::uint64_t Dram::rowOf(Addr addr) const
{
    return addr / (static_cast<std::uint64_t>(timing_.rowBytes) * bankCount());
}

Tick Dram::scheduleAccess(Addr addr)
{
    Bank& bank = banks_[bankOf(addr)];
    const std::uint64_t row = rowOf(addr);

    Tick start = std::max(curTick(), bank.readyAt);
    Tick access = 0;
    if (bank.rowOpen && bank.openRow == row) {
        rowHits_.inc();
        access = timing_.tCas;
    } else if (bank.rowOpen) {
        rowMisses_.inc();
        access = timing_.tRp + timing_.tRcd + timing_.tCas;
    } else {
        rowMisses_.inc();
        access = timing_.tRcd + timing_.tCas;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Data transfer serializes on the shared bus after the column access.
    Tick dataStart = std::max(start + access, busFreeAt_);
    Tick done = dataStart + timing_.tBurst;
    busFreeAt_ = done;
    // Column accesses pipeline within an open row: the bank is only tied up
    // for the activate/precharge window (row miss) or one burst slot (row
    // hit), not for the full access latency.
    bank.readyAt = start + (access == timing_.tCas
                                ? timing_.tBurst
                                : access - timing_.tCas);

    latency_.sample(done - curTick());
    return done;
}

void Dram::read(Addr addr, DramCallback done)
{
    reads_.inc();
    const Tick when = scheduleAccess(addr);
    if (TraceSession* t = tracing(TraceCat::kDram))
        t->span(TraceCat::kDram, name(), "read", curTick(), when, addr);
    queue().schedule(when, std::move(done), EventPriority::kController);
}

void Dram::write(Addr addr, const DataBlock& data, DramCallback done)
{
    writes_.inc();
    const Tick when = scheduleAccess(addr);
    if (TraceSession* t = tracing(TraceCat::kDram))
        t->span(TraceCat::kDram, name(), "write", curTick(), when, addr);
    // Functionally the write is applied at completion time. The line data
    // parks in a pooled slot; the event captures only the pointer.
    PendingWrite* p = writePool_.acquire();
    p->addr = addr;
    p->data = data;
    p->done = std::move(done);
    queue().schedule(when,
                     [this, p] {
                         store_.writeLine(p->addr, p->data);
                         DramCallback cb = std::move(p->done);
                         writePool_.release(p);
                         if (cb)
                             cb();
                     },
                     EventPriority::kController);
}

void Dram::writeMasked(Addr addr, const DataBlock& data, const ByteMask& mask,
                       DramCallback done)
{
    writes_.inc();
    const Tick when = scheduleAccess(addr);
    if (TraceSession* t = tracing(TraceCat::kDram))
        t->span(TraceCat::kDram, name(), "write", curTick(), when, addr);
    PendingWrite* p = writePool_.acquire();
    p->addr = addr;
    p->data = data;
    p->mask = mask;
    p->done = std::move(done);
    queue().schedule(when,
                     [this, p] {
                         store_.writeMasked(p->addr, p->data, p->mask);
                         DramCallback cb = std::move(p->done);
                         writePool_.release(p);
                         if (cb)
                             cb();
                     },
                     EventPriority::kController);
}

void Dram::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("reads"), &reads_);
    registry.registerCounter(statName("writes"), &writes_);
    registry.registerCounter(statName("row_hits"), &rowHits_);
    registry.registerCounter(statName("row_misses"), &rowMisses_);
    registry.registerHistogram(statName("latency"), &latency_);
}

} // namespace dscoh
