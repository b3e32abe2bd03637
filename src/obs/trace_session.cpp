#include "obs/trace_session.h"

#include "sim/json_writer.h"

namespace dscoh {

const char* to_string(TraceCat c)
{
    switch (c) {
    case TraceCat::kCoherence: return "coherence";
    case TraceCat::kNet: return "net";
    case TraceCat::kDram: return "dram";
    case TraceCat::kMshr: return "mshr";
    case TraceCat::kKernel: return "kernel";
    case TraceCat::kTxn: return "txn";
    }
    return "?";
}

bool parseTraceFilter(const std::string& text, std::uint32_t& mask,
                      std::string& error)
{
    if (text.empty()) {
        error = "trace filter is empty";
        return false;
    }
    std::uint32_t out = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(start, comma - start);
        start = comma + 1;
        if (item.empty()) {
            error = "trace filter '" + text + "' has an empty category";
            return false;
        }
        bool known = false;
        for (std::size_t c = 0; c < kTraceCatCount; ++c) {
            if (item == to_string(static_cast<TraceCat>(c))) {
                out |= 1u << c;
                known = true;
                break;
            }
        }
        if (!known) {
            error = "unknown trace category '" + item +
                    "' (expected coherence|net|dram|mshr|kernel|txn)";
            return false;
        }
    }
    if (out == 0) {
        error = "trace filter '" + text + "' selects no category";
        return false;
    }
    mask = out;
    return true;
}

TraceSession::TraceEvent& TraceSession::push(TraceCat cat, char ph,
                                             const std::string& track,
                                             const char* name, Tick ts,
                                             Tick dur)
{
    TraceEvent e;
    e.name = name;
    e.ts = ts;
    e.dur = dur;
    e.track = trackId(track);
    e.cat = cat;
    e.ph = ph;
    events_.push_back(e);
    return events_.back();
}

std::uint32_t TraceSession::trackId(const std::string& name)
{
    const auto it = trackIds_.find(name);
    if (it != trackIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(trackNames_.size());
    trackNames_.push_back(name);
    trackIds_.emplace(name, id);
    return id;
}

void TraceSession::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    w.object().key("traceEvents").array(0);
    w.object()
        .key("name").value("process_name")
        .key("ph").value("M")
        .key("pid").value(0)
        .key("args").object().key("name").value("dscoh").end()
        .end();
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        w.object()
            .key("name").value("thread_name")
            .key("ph").value("M")
            .key("pid").value(0)
            .key("tid").value(t)
            .key("args").object().key("name").value(trackNames_[t]).end()
            .end();
    }
    for (const TraceEvent& e : events_) {
        w.object()
            .key("name").value(e.name)
            .key("cat").value(to_string(e.cat))
            .key("ph").value(std::string_view(&e.ph, 1))
            .key("pid").value(0)
            .key("tid").value(e.track)
            .key("ts").value(e.ts);
        if (e.ph == 'X')
            w.key("dur").value(e.dur);
        if (e.ph == 'i')
            w.key("s").value("t");
        if (e.isFlow) {
            w.key("id").value(e.value);
            // Bind the finish point to the enclosing slice's end, the
            // convention Perfetto expects for terminating arrows.
            if (e.ph == 'f')
                w.key("bp").value("e");
        }
        if (e.hasAddr || e.from != nullptr || e.valueKey != nullptr) {
            w.key("args").object();
            if (e.hasAddr)
                w.key("addr").hex(e.addr);
            if (e.from != nullptr)
                w.key("from").value(e.from).key("to").value(e.to);
            if (e.valueKey != nullptr)
                w.key(e.valueKey).value(e.value);
            w.end();
        }
        w.end();
    }
    w.end().end();
}

} // namespace dscoh
