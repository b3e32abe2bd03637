// Deterministic, seeded fault injector for one Network.
//
// Network::send consults the attached injector (one pointer test when none
// is attached — the TraceSession/CoherenceChecker discipline) and the
// injector decides, from its private RNG stream, whether the message is
// dropped, duplicated, corrupted or delayed. Decisions depend only on the
// configuration, the seed and the sequence of send() calls, so a run with
// faults is exactly as reproducible as one without; the RNG state is
// snapshot/restorable so a restored run replays the same fault schedule an
// uninterrupted run would have seen.
#pragma once

#include "fault/fault_config.h"
#include "net/message.h"
#include "sim/rng.h"
#include "sim/sim_object.h"

namespace dscoh {

/// What send() should do with one message. At most one of drop/duplicate
/// applies per message; corrupt and delay compose with duplicate (both
/// copies are corrupted/delayed alike — the duplicate is a wire-level echo).
struct FaultDecision {
    bool drop = false;
    bool linkDown = false; ///< the drop came from the link-down window
    bool duplicate = false;
    bool corrupt = false;
    Tick extraDelay = 0;
};

class FaultInjector final : public SimObject {
public:
    /// @p seedSalt decorrelates the streams of injectors built from the
    /// same FaultConfig on different networks.
    FaultInjector(std::string name, SimContext& ctx, const FaultConfig& cfg,
                  std::uint64_t seedSalt = 0);

    const FaultConfig& config() const { return cfg_; }

    /// Draws this message's fate. Consumes RNG words only for fault classes
    /// that are configured on, so the stream is a pure function of the
    /// configuration and the send sequence.
    FaultDecision decide(NodeId src, NodeId dst, Tick now);

    /// True while the link-down window covers @p now (the direct-store
    /// path's "network marked down" probe).
    bool linkDownNow(Tick now) const
    {
        return cfg_.linkDownConfigured() && now >= cfg_.linkDownFrom &&
               now < cfg_.linkDownUntil;
    }

    /// Stamps msg.checksum so corruption is detectable downstream.
    void stampChecksum(Message& msg) const
    {
        msg.checksum = messageChecksum(msg);
    }

    /// Flips one payload byte, leaving the checksum stale.
    void corruptPayload(Message& msg);

    void regStats(StatRegistry& registry) override;

    /// The RNG stream position is timing state: a restored run must replay
    /// the same fault schedule. Counters live in the stats section.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.nested(self.rng_);
    }

    std::uint64_t drops() const { return drops_.value(); }
    std::uint64_t linkDownDrops() const { return linkDownDrops_.value(); }
    std::uint64_t duplicates() const { return duplicates_.value(); }
    std::uint64_t corruptions() const { return corruptions_.value(); }
    std::uint64_t delays() const { return delays_.value(); }

private:
    bool windowActive(Tick now) const
    {
        return cfg_.windowEnd == 0 ||
               (now >= cfg_.windowStart && now < cfg_.windowEnd);
    }
    bool matches(NodeId src, NodeId dst) const
    {
        return (cfg_.srcFilter == kInvalidNode || src == cfg_.srcFilter) &&
               (cfg_.dstFilter == kInvalidNode || dst == cfg_.dstFilter);
    }
    bool linkMatches(NodeId src, NodeId dst) const
    {
        return (cfg_.linkDownSrc == kInvalidNode ||
                src == cfg_.linkDownSrc) &&
               (cfg_.linkDownDst == kInvalidNode || dst == cfg_.linkDownDst);
    }
    std::uint32_t draw() { return static_cast<std::uint32_t>(rng_.below(1'000'000)); }

    FaultConfig cfg_;
    Rng rng_;

    Counter drops_;
    Counter linkDownDrops_;
    Counter duplicates_;
    Counter corruptions_;
    Counter delays_;
};

} // namespace dscoh
