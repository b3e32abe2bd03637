#include "svc/protocol.h"

#include "obs/json_lite.h"
#include "sim/json_writer.h"

namespace dscoh::svc {

namespace {

/// A reply's object, open after "ok": @p ok for the op's own members.
JsonWriter reply(bool ok)
{
    JsonWriter w;
    w.object().key("ok").value(ok);
    return w;
}

/// True when @p line is clean wire input: bounded and free of NUL /
/// non-whitespace control bytes. The socket reader enforces this per byte
/// (LineFramer); re-checking here keeps the guarantee for embedded callers
/// (tests) that bypass the framer.
bool validLine(const std::string& line, std::string* error)
{
    if (line.size() > kMaxProtocolLineBytes) {
        *error = "protocol line exceeds " +
                 std::to_string(kMaxProtocolLineBytes) + " bytes";
        return false;
    }
    for (const char c : line) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u == 0 || (u < 0x20 && c != '\t')) {
            *error = "protocol line contains control byte 0x" +
                     std::string(1, "0123456789abcdef"[u >> 4]) +
                     std::string(1, "0123456789abcdef"[u & 0xf]);
            return false;
        }
    }
    return true;
}

} // namespace

std::string errorReply(const std::string& error, bool degraded)
{
    JsonWriter w = reply(false);
    w.key("error").value(error);
    if (degraded)
        w.key("degraded").value(true);
    return w.end().take();
}

LineFramer::Result LineFramer::push(char c, std::string* line)
{
    if (c == '\n') {
        if (!buf_.empty() && buf_.back() == '\r')
            buf_.pop_back();
        *line = std::move(buf_);
        buf_.clear();
        return Result::kLine;
    }
    const unsigned char u = static_cast<unsigned char>(c);
    if (u == 0 || (u < 0x20 && c != '\t' && c != '\r')) {
        buf_.clear();
        return Result::kBadByte;
    }
    if (buf_.size() >= maxBytes_) {
        buf_.clear();
        return Result::kTooLong;
    }
    buf_.push_back(c);
    return Result::kNeedMore;
}

std::string handleRequestLine(SweepService& svc, const std::string& line,
                              bool* shutdown)
{
    std::string lineError;
    if (!validLine(line, &lineError))
        return errorReply(lineError);
    std::string parseError;
    const jsonlite::ValuePtr v = jsonlite::parse(line, parseError);
    if (v == nullptr || !v->isObject())
        return errorReply("bad protocol line: " +
                          (parseError.empty() ? "not an object" : parseError));
    const jsonlite::Value* op = v->get("op");
    if (op == nullptr || !op->isString())
        return errorReply("missing string field 'op'");

    if (op->string == "ping")
        return reply(true).key("schema").value(kProtocolSchema)
            .key("workers").value(svc.workers()).end().take();

    if (op->string == "submit") {
        const jsonlite::Value* reqVal = v->get("request");
        if (reqVal == nullptr || !reqVal->isString())
            return errorReply("submit needs a string field 'request' "
                              "holding the rendered request object");
        SweepRequest r;
        std::string error;
        if (!parseRequestJson(reqVal->string, &r, &error))
            return errorReply(error);
        std::string id;
        SubmitInfo info;
        if (!svc.submit(std::move(r), &id, &error, &info))
            return errorReply(error, info.degraded);
        return reply(true).key("id").value(id)
            .key("dir").value(svc.requestDir(id)).end().take();
    }

    if (op->string == "status" || op->string == "cancel") {
        const jsonlite::Value* id = v->get("id");
        if (id == nullptr || !id->isString())
            return errorReply(op->string + " needs a string field 'id'");
        std::string error;
        if (op->string == "status") {
            std::string status;
            if (!svc.statusJson(id->string, &status, &error))
                return errorReply(error);
            return reply(true).key("status").raw(status).end().take();
        }
        if (!svc.cancel(id->string, &error))
            return errorReply(error);
        return reply(true).key("id").value(id->string).end().take();
    }

    if (op->string == "list")
        return reply(true).key("list").raw(svc.listJson()).end().take();

    if (op->string == "stats")
        return reply(true).key("stats").raw(svc.statsJson()).end().take();

    if (op->string == "drain") {
        svc.drain();
        return reply(true).end().take();
    }

    if (op->string == "shutdown") {
        svc.beginShutdown();
        if (shutdown != nullptr)
            *shutdown = true;
        return reply(true).end().take();
    }

    return errorReply("unknown op '" + op->string + "'");
}

} // namespace dscoh::svc
