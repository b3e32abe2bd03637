// The CPU-side cache hierarchy as one coherence agent.
//
// Protocol state lives at the L2 (Table I: 2 MB, 8-way); the L1D (64 KB,
// 2-way) is a write-through tag filter kept inclusive with the L2: it only
// decides whether an access pays L1 or L1+L2 latency. This mirrors how a
// single-core inclusive hierarchy behaves under Ruby without modelling a
// second protocol level that can never disagree with the first.
//
// Adds the paper's Fig. 3 remote-store transitions: prepareRemoteStore()
// invalidates any local copy of a direct-store line (S/M -> I silently,
// MM/O -> writeback then I) before the store is pushed to the GPU L2.
#pragma once

#include "coherence/cache_agent.h"

namespace dscoh {

class CpuCacheAgent final : public CacheAgent {
public:
    struct L1Params {
        CacheGeometry geometry;
    };

    CpuCacheAgent(std::string name, SimContext& ctx,
                  const CacheAgent::Params& l2Params, const L1Params& l1Params);

    /// Does the L1 tag filter currently hold @p addr's line?
    bool l1Hit(Addr addr) const;

    /// Records an L1 fill/touch for @p addr (called when an access
    /// completes so latency filtering tracks the actual data flow).
    void l1Insert(Addr addr);

    /// Fig. 3 remote-store transitions on the CPU side. Ensures the local
    /// hierarchy holds no copy of @p addr's line, then invokes @p ready:
    ///  - I:      immediately;
    ///  - S/M:    silent invalidate, immediately;
    ///  - MM/O:   issue a writeback and fire @p ready once the home
    ///            acknowledged it, so the direct store's partial-line
    ///            fetch-merge at the GPU L2 observes the written-back bytes.
    /// In a translated program the DS region is never CPU-cached, so the
    /// non-I cases only trigger for hand-built programs and tests.
    void prepareRemoteStore(Addr addr, InlineCallback ready);

    void regStats(StatRegistry& registry) override;

    /// L2 agent state plus the L1 tag filter.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        CacheAgent::snapState(self, ar);
        ar.nested(self.l1_, [](Ar&, auto&) {});
    }

protected:
    void onFill(Line& line) override;
    void onInvalidate(Addr base) override;

private:
    /// One attempt at prepareRemoteStore(): fires @p ready once no local
    /// copy of the line is left.
    Wait tryRemoteStore(Addr base, InlineCallback& ready);

    struct L1Meta {};
    mutable CacheArray<L1Meta> l1_;

    Counter l1Hits_;
    Counter l1Misses_;
    Counter remoteStoreInvalidations_;
    Counter remoteStoreWritebacks_;
};

} // namespace dscoh
