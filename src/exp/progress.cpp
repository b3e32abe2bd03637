#include "exp/progress.h"

#include "sim/json_writer.h"
#include "snap/serializer.h"

namespace dscoh {

void writeProgressJson(JsonWriter& w, const ProgressSnapshot& s)
{
    const double rate = (s.done > 0 && s.elapsedSeconds > 0.0)
                            ? static_cast<double>(s.done) / s.elapsedSeconds
                            : 0.0;
    const std::size_t left = s.total > s.done ? s.total - s.done : 0;
    const double eta =
        rate > 0.0 ? static_cast<double>(left) / rate : 0.0;
    std::string state = s.state;
    if (state.empty())
        state = s.done < s.total ? "running"
                                 : (s.failed != 0 ? "failed" : "done");

    w.object().key("schema").value("dscoh-progress-v3");
    w.key("state").value(state);
    if (!s.id.empty())
        w.key("id").value(s.id);
    if (!s.tenant.empty())
        w.key("tenant").value(s.tenant);
    w.key("jobsTotal").value(s.total)
        .key("jobsDone").value(s.done)
        .key("jobsFailed").value(s.failed)
        .key("elapsedSeconds").fixed(s.elapsedSeconds, 3)
        .key("jobsPerSecond").fixed(rate, 3)
        .key("etaSeconds").fixed(eta, 1)
        .end();
}

std::string renderProgressJson(const ProgressSnapshot& s)
{
    JsonWriter w;
    writeProgressJson(w, s);
    return w.take() + "\n";
}

void ProgressPublisher::publish(const ProgressSnapshot& s) const
{
    snap::atomicWriteFile(path_, renderProgressJson(s));
}

} // namespace dscoh
