// One simulation's private universe.
//
// A SimContext bundles the EventQueue that drives a simulated machine with
// the optional observers its components report to: the TraceSession, the
// CoherenceChecker, the TxnProfiler and the TransitionCoverage table. Every
// System owns exactly one; nothing inside a context is shared with any
// other context, which is the invariant the parallel ExperimentEngine
// relies on: independent simulations may run concurrently on different
// threads with no synchronisation at all. (The coverage table is the
// caller's: one table must not be attached to two Systems that run at
// once.)
#pragma once

#include <memory>

#include "check/coherence_checker.h"
#include "net/message.h"
#include "obs/trace_session.h"
#include "obs/txn_profiler.h"
#include "sim/event_queue.h"
#include "sim/object_pool.h"

namespace dscoh {

struct SimContext {
    SimContext() = default;

    SimContext(const SimContext&) = delete;
    SimContext& operator=(const SimContext&) = delete;

    EventQueue queue;

    /// Arena of Message slots shared by every network and agent in this
    /// context: send -> deliver moves a message into a pooled slot and the
    /// delivery event captures only the slot pointer, so the hot message
    /// path performs no per-message allocation and fits the event queue's
    /// inline callback buffer.
    ObjectPool<Message> msgPool;

    /// Structured event tracing. Null (the default) means tracing is off
    /// and every hook in the components costs one pointer test; see
    /// System::enableTracing().
    std::unique_ptr<TraceSession> trace;

    /// Live coherence invariant oracle. Null (the default) means checking
    /// is off at the same one-pointer-test cost as tracing; see
    /// System::enableChecker().
    std::unique_ptr<CoherenceChecker> checker;

    /// Transaction-span latency profiler. Null (the default) means
    /// profiling is off at the same one-pointer-test cost as tracing; see
    /// System::enableTxnProfiler().
    std::unique_ptr<TxnProfiler> txnprof;

    /// Fig. 3 edge counts, owned by the caller. Null (the default) means
    /// no coverage is recorded, at the same one-pointer-test cost; see
    /// System::attachCoverage().
    TransitionCoverage* coverage = nullptr;
};

} // namespace dscoh
