// The dscoh-svc-v1 wire protocol: line-delimited JSON over a Unix-domain
// stream socket.
//
// Each request is one JSON object on one line; each reply is one JSON
// object on one line. Replies always carry "ok" (bool); failures add
// "error" (string), successes add op-specific fields. Ops:
//
//   {"op": "ping"}                      -> {"ok": true, "schema": "dscoh-svc-v1", "workers": N}
//   {"op": "submit", "request": "..."}  -> {"ok": true, "id": "r000001", "dir": "<stateDir>/jobs/r000001"}
//       ("request" is a rendered SweepRequest object as a JSON string —
//        the same document renderRequestJson() produces)
//   {"op": "status", "id": "r000001"}   -> {"ok": true, "status": {<dscoh-progress-v3>}}
//   {"op": "list"}                      -> {"ok": true, "list": {<dscoh-svc-list-v1>}}
//   {"op": "cancel", "id": "r000001"}   -> {"ok": true, "id": "r000001"}
//   {"op": "stats"}                     -> {"ok": true, "stats": {<dscoh-svc-stats-v2>}}
//   {"op": "drain"}                     -> {"ok": true}   (blocks until idle)
//   {"op": "shutdown"}                  -> {"ok": true}   (server exits after replying)
//
// A storage-degraded submit rejection is distinguishable from a client
// error: its reply carries "degraded": true (the service is read-only
// until its disk recovers).
//
// The handler is a pure function of (service, line) so protocol tests need
// no sockets; the socket server is a thin line pump around it.
#pragma once

#include <string>

#include "svc/service.h"

namespace dscoh::svc {

inline constexpr char kProtocolSchema[] = "dscoh-svc-v1";

/// Upper bound on one protocol line (request or reply). Longer input is a
/// protocol violation, not a request — the reader rejects it without
/// buffering the rest, so an oversized (or endless) line cannot balloon
/// daemon memory.
inline constexpr std::size_t kMaxProtocolLineBytes = 1u << 20;

/// Incremental line assembler shared by the server's socket reader and the
/// protocol tests: feed bytes one at a time, get a complete line or a
/// typed protocol violation. A trailing '\r' is stripped (CRLF clients);
/// NUL and all other control bytes except '\t' are rejected — they never
/// appear in JSON protocol lines and are the signature of a confused or
/// malicious peer.
class LineFramer {
public:
    enum class Result {
        kNeedMore, ///< byte consumed, line not complete yet
        kLine,     ///< '\n' seen: @p line holds the complete line
        kTooLong,  ///< line exceeded kMaxProtocolLineBytes
        kBadByte,  ///< NUL or non-whitespace control byte
    };

    explicit LineFramer(std::size_t maxBytes = kMaxProtocolLineBytes)
        : maxBytes_(maxBytes)
    {
    }

    /// Consumes one byte. On kLine, moves the assembled line into @p line
    /// and resets. On kTooLong/kBadByte the framer also resets — the
    /// caller should reply with an error and drop the connection.
    Result push(char c, std::string* line);

    /// Bytes buffered toward the current (incomplete) line.
    std::size_t pending() const { return buf_.size(); }

    void reset() { buf_.clear(); }

private:
    std::size_t maxBytes_;
    std::string buf_;
};

/// Executes one protocol line against @p svc and returns the reply line
/// (no trailing newline). Malformed input (bad JSON, overlong line,
/// embedded control bytes) yields an ok:false reply, never a throw. Sets
/// @p *shutdown (when non-null) on a shutdown op, after calling
/// svc.beginShutdown().
std::string handleRequestLine(SweepService& svc, const std::string& line,
                              bool* shutdown);

/// The failure reply {"ok": false, "error": ERROR} (no trailing newline),
/// plus "degraded": true when @p degraded: a submit refused by a degraded
/// service says so, so clients can tell "the disk is sick" from "your
/// request is broken".
std::string errorReply(const std::string& error, bool degraded = false);

} // namespace dscoh::svc
