// Base class for every simulated component.
//
// A SimObject has a hierarchical name, a reference to its owning SimContext
// (event queue and optional observers), and a hook for registering its statistics.
// Construction order defines the system; there is no separate elaboration
// phase. Components belonging to different contexts share no state, so
// independent simulations can run on different threads concurrently.
#pragma once

#include <string>
#include <utility>

#include "sim/sim_context.h"
#include "sim/stats.h"
#include "snap/snapshot.h"

namespace dscoh {

/// Snapshottable gives every component snapSave/snapRestore hooks (no-op by
/// default) that System::snapshotSave/snapshotRestore invoke in a fixed
/// order, one named snapshot section per component.
class SimObject : public snap::Snapshottable {
public:
    SimObject(std::string name, SimContext& ctx)
        : name_(std::move(name)), ctx_(ctx)
    {
    }
    virtual ~SimObject() = default;

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    const std::string& name() const { return name_; }
    SimContext& context() const { return ctx_; }
    EventQueue& queue() { return ctx_.queue; }
    const EventQueue& queue() const { return ctx_.queue; }
    Tick curTick() const { return ctx_.queue.curTick(); }

    /// The context's trace session when one is attached *and* records
    /// @p cat, else nullptr. The tracing hooks in hot paths are all of the
    /// form `if (TraceSession* t = tracing(...)) t->...;` — one pointer
    /// load and branch when tracing is off.
    TraceSession* tracing(TraceCat cat) const
    {
        TraceSession* t = ctx_.trace.get();
        return t != nullptr && t->enabled(cat) ? t : nullptr;
    }

    /// The context's coherence checker when one is attached, else nullptr.
    /// Checker hooks mirror the tracing hooks:
    /// `if (CoherenceChecker* c = checking()) c->...;`.
    CoherenceChecker* checking() const { return ctx_.checker.get(); }

    /// The context's transaction profiler when one is attached, else
    /// nullptr. Profiling hooks mirror the tracing hooks:
    /// `if (TxnProfiler* p = profiling()) p->...;`.
    TxnProfiler* profiling() const { return ctx_.txnprof.get(); }

    /// Registers this component's statistics under its name.
    virtual void regStats(StatRegistry& registry) { static_cast<void>(registry); }

protected:
    std::string statName(const std::string& leaf) const { return name_ + "." + leaf; }

private:
    std::string name_;
    SimContext& ctx_;
};

} // namespace dscoh
