// Structured event tracing for one simulation.
//
// A TraceSession records typed spans and instants — protocol transitions,
// network messages, DRAM accesses, MSHR lifetimes, kernel launches — and
// serializes them as Chrome trace-event JSON, viewable in Perfetto or
// chrome://tracing. Each simulated component appears as its own named track.
//
// The session is owned by the SimContext (see sim/sim_context.h): tracing is
// strictly per-simulation, so concurrent runs under the ExperimentEngine
// never share trace state. When no session is attached — the common case —
// every hot-path hook reduces to one pointer load and branch; no event
// storage is touched and nothing allocates.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.h"

namespace dscoh {

/// Event categories. Each maps to a Chrome trace-event "cat" string and can
/// be enabled independently (--trace-filter).
enum class TraceCat : std::uint8_t {
    kCoherence, ///< protocol transitions (state, event) -> state
    kNet,       ///< messages on every network, incl. the dedicated DS net
    kDram,      ///< DRAM channel accesses
    kMshr,      ///< MSHR allocate -> release lifetimes
    kKernel,    ///< kernel launch / retire
    kTxn,       ///< transaction-span flow arrows (TxnProfiler)
};
constexpr std::size_t kTraceCatCount = 6;

const char* to_string(TraceCat c);

constexpr std::uint32_t traceCatBit(TraceCat c)
{
    return 1u << static_cast<std::uint32_t>(c);
}

constexpr std::uint32_t kAllTraceCats =
    (1u << kTraceCatCount) - 1;

/// Parses a comma-separated category list ("net,dram") into a mask.
/// Strict: an empty list, empty element or unknown category name fails with
/// a deterministic message in @p error.
bool parseTraceFilter(const std::string& text, std::uint32_t& mask,
                      std::string& error);

class TraceSession {
public:
    /// Records only categories present in @p catMask.
    explicit TraceSession(std::uint32_t catMask = kAllTraceCats)
        : mask_(catMask)
    {
    }

    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;

    bool enabled(TraceCat c) const { return (mask_ & traceCatBit(c)) != 0; }

    /// An instantaneous event on @p track at @p ts. @p name (and the
    /// optional from/to/valueKey strings passed to the overloads below) must
    /// be string literals or otherwise outlive the session: events store the
    /// pointers, not copies, to keep recording allocation-light.
    void instant(TraceCat cat, const std::string& track, const char* name,
                 Tick ts)
    {
        push(cat, 'i', track, name, ts, 0);
    }

    void instant(TraceCat cat, const std::string& track, const char* name,
                 Tick ts, Addr addr)
    {
        TraceEvent& e = push(cat, 'i', track, name, ts, 0);
        e.addr = addr;
        e.hasAddr = true;
    }

    /// A protocol transition: an instant whose args carry from/to states.
    void transition(const std::string& track, const char* eventName,
                    const char* from, const char* to, Tick ts, Addr addr)
    {
        TraceEvent& e = push(TraceCat::kCoherence, 'i', track, eventName, ts, 0);
        e.addr = addr;
        e.hasAddr = true;
        e.from = from;
        e.to = to;
    }

    /// A completed span [start, end] on @p track.
    void span(TraceCat cat, const std::string& track, const char* name,
              Tick start, Tick end)
    {
        push(cat, 'X', track, name, start, end - start);
    }

    void span(TraceCat cat, const std::string& track, const char* name,
              Tick start, Tick end, Addr addr)
    {
        TraceEvent& e = push(cat, 'X', track, name, start, end - start);
        e.addr = addr;
        e.hasAddr = true;
    }

    /// Span with one extra numeric argument (e.g. "blocks": 64).
    void span(TraceCat cat, const std::string& track, const char* name,
              Tick start, Tick end, const char* valueKey, std::uint64_t value)
    {
        TraceEvent& e = push(cat, 'X', track, name, start, end - start);
        e.valueKey = valueKey;
        e.value = value;
    }

    /// One point of a flow-event arrow chain: @p ph is 's' (start), 't'
    /// (step) or 'f' (finish), and @p id binds the points of one flow
    /// together (the TxnProfiler passes its span id). Rendered by Perfetto
    /// as arrows following the transaction across component tracks.
    void flow(TraceCat cat, const std::string& track, const char* name,
              Tick ts, char ph, std::uint64_t id)
    {
        TraceEvent& e = push(cat, ph, track, name, ts, 0);
        e.value = id;
        e.isFlow = true;
    }

    /// Writes the whole session as a Chrome trace-event JSON object:
    /// {"traceEvents": [...]} with one thread_name metadata record per
    /// track. Valid JSON; loadable by Perfetto and chrome://tracing.
    void writeJson(std::ostream& os) const;

private:
    struct TraceEvent {
        const char* name = "";
        const char* from = nullptr;     ///< optional "from" arg
        const char* to = nullptr;       ///< optional "to" arg
        const char* valueKey = nullptr; ///< optional numeric arg key
        std::uint64_t value = 0;
        Tick ts = 0;
        Tick dur = 0;
        Addr addr = 0;
        std::uint32_t track = 0;
        TraceCat cat = TraceCat::kCoherence;
        char ph = 'i';
        bool hasAddr = false;
        bool isFlow = false; ///< value is the flow id, not an arg
    };

    TraceEvent& push(TraceCat cat, char ph, const std::string& track,
                     const char* name, Tick ts, Tick dur);
    std::uint32_t trackId(const std::string& name);

    std::uint32_t mask_;
    std::vector<TraceEvent> events_;
    std::vector<std::string> trackNames_; ///< index == tid
    std::unordered_map<std::string, std::uint32_t> trackIds_;
};

} // namespace dscoh
