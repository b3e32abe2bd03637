#include "cpu/cpu_cache_agent.h"

#include <cassert>
#include <utility>

namespace dscoh {

CpuCacheAgent::CpuCacheAgent(std::string name, SimContext& ctx,
                             const CacheAgent::Params& l2Params,
                             const L1Params& l1Params)
    : CacheAgent(std::move(name), ctx, l2Params), l1_(l1Params.geometry)
{
}

bool CpuCacheAgent::l1Hit(Addr addr) const
{
    return l1_.find(addr) != nullptr;
}

void CpuCacheAgent::l1Insert(Addr addr)
{
    if (l1_.find(addr) != nullptr) {
        l1_.touch(addr);
        l1Hits_.inc();
        return;
    }
    l1Misses_.inc();
    auto* way = l1_.findFreeWay(addr);
    if (way == nullptr) {
        way = l1_.selectVictim(addr, [](const CacheArray<L1Meta>::Line&) {
            return true; // tag filter: every line is silently droppable
        });
    }
    assert(way != nullptr);
    if (way->valid)
        l1_.invalidate(*way);
    l1_.install(*way, addr);
}

void CpuCacheAgent::onFill(Line& line)
{
    l1Insert(line.base);
}

void CpuCacheAgent::onInvalidate(Addr base)
{
    // Inclusion: the L1 filter may never hold a line the L2 lost.
    if (auto* l1Line = l1_.find(base))
        l1_.invalidate(*l1Line);
}

void CpuCacheAgent::prepareRemoteStore(Addr addr, InlineCallback ready)
{
    const Addr base = lineAlign(addr);
    if (const Wait why = tryRemoteStore(base, ready); why != Wait::kNone)
        park(base, why, [this, base, r = std::move(ready)]() mutable {
            return tryRemoteStore(base, r);
        });
}

CacheAgent::Wait CpuCacheAgent::tryRemoteStore(Addr base,
                                              InlineCallback& ready)
{
    // A writeback for this line (possibly our own, below) is draining:
    // wait for its ack.
    if (inWriteback(base))
        return Wait::kOther;

    Line* lineHit = array().find(base);
    if (lineHit == nullptr) {
        // Fig. 3: a remote store from I forwards the data and stays I.
        noteTransition(CohState::kI, CohEvent::kRemoteStore, CohState::kI,
                       base);
        ready();
        return Wait::kNone;
    }

    if (params().injectBug == InjectedBug::kSkipRemoteStoreInval) {
        ready(); // deliberate bug: stale copy survives the remote store
        return Wait::kNone;
    }

    assert(isStable(lineHit->meta.state) &&
           "remote store racing a local transaction on the same line");
    remoteStoreInvalidations_.inc();

    if (needsWriteback(lineHit->meta.state)) {
        if (writebackBufferFull())
            return Wait::kOther;
        remoteStoreWritebacks_.inc();
        moveToWriteback(*lineHit, CohEvent::kRemoteStore);
        // The WbAck drains the writeback buffer; the retry then takes the
        // line==nullptr fast path and fires ready().
        return Wait::kOther;
    }

    // S or M: clean, silently droppable (Fig. 3: S/M --RemoteStore--> I).
    moveTo(*lineHit, CohEvent::kRemoteStore, CohState::kI);
    ready();
    return Wait::kNone;
}

void CpuCacheAgent::regStats(StatRegistry& registry)
{
    CacheAgent::regStats(registry);
    registry.registerCounter(statName("l1_hits"), &l1Hits_);
    registry.registerCounter(statName("l1_misses"), &l1Misses_);
    registry.registerCounter(statName("remote_store_invalidations"),
                             &remoteStoreInvalidations_);
    registry.registerCounter(statName("remote_store_writebacks"),
                             &remoteStoreWritebacks_);
}

} // namespace dscoh
