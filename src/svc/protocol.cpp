#include "svc/protocol.h"

#include "obs/json_lite.h"

namespace dscoh::svc {

namespace {

std::string fail(const std::string& error)
{
    return "{\"ok\": false, \"error\": \"" + jsonEscape(error) + "\"}";
}

/// Rejection reply for a submit: a degraded service says so in a
/// machine-readable flag, so clients can tell "the disk is sick" from
/// "your request is broken".
std::string failSubmit(const std::string& error, const SubmitInfo& info)
{
    if (!info.degraded)
        return fail(error);
    return "{\"ok\": false, \"error\": \"" + jsonEscape(error) +
           "\", \"degraded\": true}";
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
        return fail(lineError);
    std::string parseError;
    const jsonlite::ValuePtr v = jsonlite::parse(line, parseError);
    if (v == nullptr || !v->isObject())
        return fail("bad protocol line: " +
                    (parseError.empty() ? "not an object" : parseError));
    const jsonlite::Value* op = v->get("op");
    if (op == nullptr || !op->isString())
        return fail("missing string field 'op'");

    if (op->string == "ping")
        return std::string("{\"ok\": true, \"schema\": \"") +
               kProtocolSchema +
               "\", \"workers\": " + std::to_string(svc.workers()) + "}";

    if (op->string == "submit") {
        const jsonlite::Value* reqVal = v->get("request");
        if (reqVal == nullptr || !reqVal->isString())
            return fail("submit needs a string field 'request' holding the "
                        "rendered request object");
        SweepRequest r;
        std::string error;
        if (!parseRequestJson(reqVal->string, &r, &error))
            return fail(error);
        std::string id;
        SubmitInfo info;
        if (!svc.submit(std::move(r), &id, &error, &info))
            return failSubmit(error, info);
        return "{\"ok\": true, \"id\": \"" + jsonEscape(id) +
               "\", \"dir\": \"" + jsonEscape(svc.requestDir(id)) + "\"}";
    }

    if (op->string == "status" || op->string == "cancel") {
        const jsonlite::Value* id = v->get("id");
        if (id == nullptr || !id->isString())
            return fail(op->string + " needs a string field 'id'");
        std::string error;
        if (op->string == "status") {
            std::string status;
            if (!svc.statusJson(id->string, &status, &error))
                return fail(error);
            while (!status.empty() && status.back() == '\n')
                status.pop_back();
            return "{\"ok\": true, \"status\": " + status + "}";
        }
        if (!svc.cancel(id->string, &error))
            return fail(error);
        return "{\"ok\": true, \"id\": \"" + jsonEscape(id->string) + "\"}";
    }

    if (op->string == "list")
        return "{\"ok\": true, \"list\": " + svc.listJson() + "}";

    if (op->string == "stats")
        return "{\"ok\": true, \"stats\": " + svc.statsJson() + "}";

    if (op->string == "drain") {
        svc.drain();
        return "{\"ok\": true}";
    }

    if (op->string == "shutdown") {
        svc.beginShutdown();
        if (shutdown != nullptr)
            *shutdown = true;
        return "{\"ok\": true}";
    }

    return fail("unknown op '" + op->string + "'");
}

} // namespace dscoh::svc
