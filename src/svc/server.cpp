#include "svc/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/errors.h"
#include "svc/protocol.h"

namespace dscoh::svc {

namespace {

int listenOn(const std::string& path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    ::unlink(path.c_str()); // the daemon owns this path; replace stale files
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 16) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

enum class ReadStatus {
    kLine,    ///< a complete, clean line
    kClosed,  ///< EOF, error, or idle timeout between lines
    kTooLong, ///< line exceeded the protocol cap
    kBadByte, ///< NUL / control byte on the wire
    kStalled, ///< peer started a line but never finished it
};

/// Idle timeout between lines (a silent client gets dropped).
constexpr std::chrono::milliseconds kRecvTimeout{30000};
/// Stall deadline for one line: a client that starts a request but has
/// not finished it this long later gets an error and the boot — a
/// drip-feeding peer cannot monopolize the single-connection loop.
constexpr std::chrono::milliseconds kLineDeadline{10000};
/// The socket's receive timeout: both deadlines are checked at this
/// granularity.
constexpr timeval kRecvTick{1, 0};

/// Reads one framed line. Two distinct timeouts guard the loop: an idle
/// peer (no line started) gets kRecvTimeout before the connection drops
/// silently; a SLOW-WRITING peer (line started, bytes trickling or
/// stopped) gets kLineDeadline from its first byte — a drip-feeding
/// client cannot hold the single-connection server hostage.
ReadStatus readLine(int fd, LineFramer& framer, std::string* line)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    std::optional<Clock::time_point> lineStart;
    if (framer.pending() != 0)
        lineStart = start; // leftovers from the previous read count
    char c = 0;
    for (;;) {
        const ssize_t n = ::recv(fd, &c, 1, 0);
        if (n == 0)
            return ReadStatus::kClosed;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                return ReadStatus::kClosed;
            // recv timed out (SO_RCVTIMEO tick): check the deadlines.
            const auto now = Clock::now();
            if (lineStart && now - *lineStart >= kLineDeadline)
                return ReadStatus::kStalled;
            if (!lineStart && now - start >= kRecvTimeout)
                return ReadStatus::kClosed;
            continue;
        }
        if (!lineStart)
            lineStart = Clock::now();
        switch (framer.push(c, line)) {
        case LineFramer::Result::kLine:
            return ReadStatus::kLine;
        case LineFramer::Result::kTooLong:
            return ReadStatus::kTooLong;
        case LineFramer::Result::kBadByte:
            return ReadStatus::kBadByte;
        case LineFramer::Result::kNeedMore:
            break;
        }
    }
}

bool writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

int serveSocket(SweepService& svc, const ServerOptions& options,
                const std::atomic<bool>& stop)
{
    const int listenFd = listenOn(options.socketPath);
    if (listenFd < 0)
        return kExitIo;

    bool shutdown = false;
    while (!shutdown && !stop.load()) {
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, options.pollMs);
        if (ready < 0 && errno != EINTR)
            break;
        svc.tick(); // degraded-storage probe, even while idle
        if (ready <= 0 || (pfd.revents & POLLIN) == 0)
            continue;

        const int conn = ::accept(listenFd, nullptr, nullptr);
        if (conn < 0)
            continue;
        ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &kRecvTick,
                     sizeof kRecvTick);

        LineFramer framer;
        std::string line;
        bool alive = true;
        while (alive && !shutdown) {
            switch (readLine(conn, framer, &line)) {
            case ReadStatus::kLine:
                if (line.empty())
                    continue;
                alive = writeAll(
                    conn, handleRequestLine(svc, line, &shutdown) + "\n");
                continue;
            case ReadStatus::kTooLong:
                writeAll(conn, errorReply("protocol line exceeds the size "
                                          "limit") + "\n");
                alive = false;
                continue;
            case ReadStatus::kBadByte:
                writeAll(conn, errorReply("protocol line contains a control "
                                          "byte") + "\n");
                alive = false;
                continue;
            case ReadStatus::kStalled:
                writeAll(conn, errorReply("request line not completed in "
                                          "time") + "\n");
                alive = false;
                continue;
            case ReadStatus::kClosed:
                alive = false;
                continue;
            }
        }
        ::close(conn);
    }
    if (stop.load())
        svc.beginShutdown();
    ::close(listenFd);
    ::unlink(options.socketPath.c_str());
    return kExitOk;
}

} // namespace dscoh::svc
