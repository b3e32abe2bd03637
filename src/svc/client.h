// Client side of the dscoh-svc-v1 socket protocol.
//
// Deliberately connectionless from the caller's view: every call() opens
// the socket, sends one line, reads one line, closes. That keeps the
// server's one-connection-at-a-time loop fair across tenants and makes
// the client trivially retry-safe (every op is idempotent or carries an
// id). `dscoh_client watch` is built on polling status here — the server
// has no push channel by design.
#pragma once

#include <string>

namespace dscoh::svc {

/// One dscoh-svc-v1 request line, {"op": OP}, plus the string member
/// KEY: VALUE when @p key is non-empty ("id" for status and cancel,
/// "request" with a rendered SweepRequest for submit). Escapes both.
std::string requestLine(const std::string& op, const std::string& key = {},
                        const std::string& value = {});

class SvcClient {
public:
    explicit SvcClient(std::string socketPath)
        : socketPath_(std::move(socketPath))
    {
    }

    /// Sends @p requestLine (one dscoh-svc-v1 object, no newline needed)
    /// and returns the reply line in @p reply. False + @p error when the
    /// daemon is unreachable or the connection drops mid-reply; protocol-
    /// level failures still return true (the reply carries ok:false).
    bool call(const std::string& requestLine, std::string* reply,
              std::string* error) const;

    const std::string& socketPath() const { return socketPath_; }

private:
    std::string socketPath_;
};

} // namespace dscoh::svc
