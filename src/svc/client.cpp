#include "svc/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/json_writer.h"

namespace dscoh::svc {

std::string requestLine(const std::string& op, const std::string& key,
                        const std::string& value)
{
    JsonWriter w;
    w.object().key("op").value(op);
    if (!key.empty())
        w.key(key).value(value);
    return w.end().take();
}

bool SvcClient::call(const std::string& requestLine, std::string* reply,
                     std::string* error) const
{
    if (socketPath_.size() >= sizeof(sockaddr_un{}.sun_path)) {
        *error = "socket path too long: " + socketPath_;
        return false;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath_.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
        *error = "cannot reach daemon at " + socketPath_ + ": " +
                 std::strerror(errno);
        ::close(fd);
        return false;
    }

    const std::string line = requestLine + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            *error = std::string("send: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }

    reply->clear();
    char c = 0;
    for (;;) {
        const ssize_t n = ::recv(fd, &c, 1, 0);
        if (n <= 0) {
            *error = "connection dropped before a full reply";
            ::close(fd);
            return false;
        }
        if (c == '\n')
            break;
        reply->push_back(c);
    }
    ::close(fd);
    return true;
}

} // namespace dscoh::svc
