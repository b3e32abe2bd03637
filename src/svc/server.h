// Unix-domain socket front end for the sweep service.
//
// serveSocket() is the daemon's main loop: it listens on a stream socket
// and pumps dscoh-svc-v1 lines through handleRequestLine(). Connections
// are handled one at a time — the protocol is strictly one-line-in /
// one-line-out, clients connect per call, and a short receive timeout
// bounds how long a stalled peer can hold the loop.
#pragma once

#include <atomic>
#include <string>

#include "svc/service.h"

namespace dscoh::svc {

struct ServerOptions {
    std::string socketPath;
    /// poll() timeout between accepts; each timeout runs a service tick
    /// (the degraded-storage probe).
    int pollMs = 500;
};

/// Runs the accept loop until a shutdown op arrives or @p stop becomes
/// true (signal handlers set it). Replaces any stale socket file at
/// @p socketPath (the daemon owns that path). Returns 0 on a clean stop,
/// kExitIo when the socket cannot be created.
int serveSocket(SweepService& svc, const ServerOptions& options,
                const std::atomic<bool>& stop);

} // namespace dscoh::svc
