// Live coherence invariant oracle.
//
// A CoherenceChecker attaches to a SimContext (System::enableChecker) the
// same way a TraceSession does: null by default, one pointer test per hook
// when off, so a checker-less simulation is byte-identical to a build
// without the subsystem. When on, every protocol transition re-validates
// its line across every agent, after the new state has landed (a cache
// agent writes a line's state in CacheAgent::moveTo, then reports it):
//
//  - single-writer / multiple-reader: at most one owner (MM/M/O, or a
//    writeback draining as MI_A/OI_A) per line across the CPU agent and
//    every GPU L2 slice, and an exclusive (MM/M) copy never coexists with
//    another readable copy;
//  - data-value consistency: a ground-truth mirror of every store applied
//    at a coherent agent (the linearization points) is compared byte-wise
//    against each readable copy on every transition, and against the
//    owner-copy-else-backing-store view of memory at finalize();
//  - MSHR hygiene: double allocation, release-without-allocate and
//    end-of-run leaks are caught even in NDEBUG builds where the MshrFile
//    asserts compile away;
//  - no-progress watchdog: a driver (the fuzzer, or any test) runs the
//    event queue in slices and calls checkProgress() between them; a slice
//    with zero protocol activity while transactions, writebacks or network
//    messages are outstanding is reported as a deadlock/livelock, and
//    finalize() itemizes every stuck resource once the queue drains.
//
// The checker talks to the agents through type-erased AgentView probes so
// this header depends only on protocol/state vocabulary, never on the agent
// classes themselves (SimContext includes this header).
//
// The data mirror assumes data-race-free programs (conflicting same-line
// writes ordered by fences / completion callbacks), which is the contract
// every scenario the fuzzer generates obeys.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.h"
#include "coherence/transition_coverage.h"
#include "mem/data_block.h"
#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

class BackingStore;

class CoherenceChecker {
public:
    /// Violations recorded before further ones are only counted.
    static constexpr std::size_t kMaxViolations = 64;

    using LineFn = std::function<void(Addr base, CohState state,
                                      const DataBlock& data)>;

    /// Type-erased probe into one coherent agent (CPU hierarchy or a GPU
    /// L2 slice). Registered by System::enableChecker().
    struct AgentView {
        std::string name;
        /// Protocol state of a line (kI when absent; writeback-buffer
        /// entries report their transient state).
        std::function<CohState(Addr)> stateOf;
        /// The line's bytes (array or writeback buffer), or nullptr.
        std::function<const DataBlock*(Addr)> dataOf;
        std::function<std::size_t()> mshrInFlight;
        std::function<std::size_t()> writebackEntries;
        std::function<std::size_t()> blockedThunks;
        /// Every valid line: cache array first, then writeback buffer.
        std::function<void(const LineFn&)> forEachLine;
    };

    // --- registration (System::enableChecker) ----------------------------
    void addAgent(AgentView view);
    void setHomeProbe(std::function<std::size_t()> busyLines);
    void setBackingStore(const BackingStore* store);

    // --- hooks (hot paths; every caller guards with `if (checking())`) ---
    /// A line's state changed (or a stateless edge was taken) on @p event:
    /// re-checks @p base's copies across every agent.
    void onTransition(Addr base, CohEvent event, Tick now);
    void onMshrAllocate(const std::string& agent, Addr base, Tick now);
    void onMshrRelease(const std::string& agent, Addr base, Tick now);
    /// A store's bytes were applied at a coherent agent (the global
    /// linearization point for that line). Updates the ground-truth mirror.
    void onStoreApplied(Addr base, const DataBlock& data, const ByteMask& mask);
    /// Timestamp fast path (multi-GPU): a home slice granted a lease on
    /// @p base until @p expiry. Epoch validity: the grant must lie in the
    /// future and the grantor must hold the line in an owner state.
    void onLeaseGrant(const std::string& agent, Addr base, Tick expiry,
                      Tick now);
    /// A leaseholder served @p data for @p base under a lease expiring at
    /// @p expiry. Serves must strictly precede expiry, and (with data
    /// tracking) the served bytes must match the ground-truth mirror —
    /// this is what turns a skipped lease hold into a reported violation
    /// rather than just a wrong workload result.
    void onLeaseServe(const std::string& agent, Addr base,
                      const DataBlock& data, Tick expiry, Tick now);
    /// A component detected a structural violation itself (misrouted
    /// direct store, request at the wrong directory shard). Recorded like
    /// any invariant breach.
    void reportExternal(const std::string& agent, const std::string& what,
                        Tick now);
    void onMessageSent() { ++inFlight_; ++activity_; }
    void onMessageDelivered()
    {
        if (inFlight_ > 0)
            --inFlight_;
        ++activity_;
    }

    // --- driver API -------------------------------------------------------
    /// Call between event-queue slices. Returns false (and records a
    /// deadlock violation) when no protocol activity happened since the
    /// previous call while work was outstanding.
    bool checkProgress(Tick now);

    /// Call once the queue drained: itemizes stuck resources, re-validates
    /// every cached line, and compares the store mirror against the
    /// owner-copy-else-backing-store view of memory.
    void finalize(Tick now);

    bool clean() const { return violations_.empty(); }
    const std::vector<std::string>& violations() const { return violations_; }
    std::uint64_t transitionsChecked() const { return transitions_; }
    std::uint64_t storesMirrored() const { return storesMirrored_; }

    void dump(std::ostream& os) const;

    /// Oracle shadow state: the ground-truth store mirror, accumulated
    /// violations and hook counters. MSHR live-sets and in-flight-message
    /// counts must be zero at a safe point (checked, not saved). Restoring
    /// keeps the oracle live across a checkpoint with full history.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (Ar::kLoading) {
            self.mshrLive_.clear();
            self.inFlight_ = 0;
        } else {
            if (self.inFlight_ != 0)
                throw snap::SnapError(
                    "checker: " + std::to_string(self.inFlight_) +
                    " network messages in flight at snapshot");
            for (const auto& [agent, live] : self.mshrLive_)
                if (!live.empty())
                    throw snap::SnapError(
                        "checker: agent '" + agent +
                        "' has live MSHR entries at snapshot");
        }
        snap::keyed(ar, self.mirror_, [](Ar& a, auto& line) {
            a.bytes(line.data.data(), kLineSize);
            a.nested(line.valid);
        });
        snap::seq(ar, self.violations_, [](Ar& a, auto& v) { a.str(v); });
        ar.u64(self.suppressed_);
        ar.u64(self.transitions_);
        ar.u64(self.storesMirrored_);
        ar.u64(self.activity_);
        ar.u64(self.lastActivity_);
        ar.flag(self.progressArmed_);
    }

    struct MirrorLine {
        DataBlock data;
        ByteMask valid;
    };

    void record(const char* category, const std::string& what, Tick now);
    /// Re-validates one line across every agent; @p when labels the report.
    void checkLine(Addr base, const char* when, Tick now);
    bool outstandingWork(std::string* detail) const;
    /// The line's current global value: owner (or draining-writeback) copy
    /// if one exists, else backing store. @p source names where it came from.
    const DataBlock* globalLineValue(Addr base, std::string* source) const;

    std::vector<AgentView> agents_;
    std::function<std::size_t()> homeBusyLines_;
    const BackingStore* store_ = nullptr;

    std::unordered_map<Addr, MirrorLine> mirror_;
    std::map<std::string, std::set<Addr>> mshrLive_; ///< per-agent live misses

    std::vector<std::string> violations_;
    std::uint64_t suppressed_ = 0;
    std::uint64_t transitions_ = 0;
    std::uint64_t storesMirrored_ = 0;
    std::uint64_t activity_ = 0; ///< bumped by every hook (progress signal)
    std::uint64_t lastActivity_ = 0;
    bool progressArmed_ = false;
    std::size_t inFlight_ = 0; ///< network messages sent but not delivered
};

} // namespace dscoh
