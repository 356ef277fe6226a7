#include "serving/socket.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"

#if defined(__unix__) || defined(__APPLE__)
#define DEJAVU_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace dejavu {
namespace serving {

std::size_t
SocketServer::openConnections() const
{
    MutexLock lock(_mu);
    return static_cast<std::size_t>(std::count_if(
        _connections.begin(), _connections.end(),
        [](const Connection &c) { return c.fd >= 0; }));
}

std::size_t
SocketServer::workerThreads() const
{
    MutexLock lock(_mu);
    return _connections.size();
}

#ifdef DEJAVU_HAVE_UNIX_SOCKETS

namespace {

/** Full write; false on error/EPIPE. */
bool
writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

int
connectTo(const std::string &path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

SocketServer::SocketServer(ServingServer &core, std::string path)
    : _core(core), _path(std::move(path))
{
}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start()
{
    if (_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        warn("dejavud: socket path too long: ", _path);
        return false;
    }
    _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (_listenFd < 0) {
        warn("dejavud: socket() failed");
        return false;
    }
    ::unlink(_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, _path.c_str(), _path.size() + 1);
    if (::bind(_listenFd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0
        || ::listen(_listenFd, 64) != 0) {
        warn("dejavud: cannot listen on ", _path);
        ::close(_listenFd);
        _listenFd = -1;
        return false;
    }
    _acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (_stopping.load(std::memory_order_acquire))
                return;
            continue;  // Transient accept error; keep listening.
        }
        // Reap the workers of connections that have ended since the
        // last accept; they are returning, so the joins are short.
        std::vector<std::thread> finished;
        {
            MutexLock lock(_mu);
            if (_stopping.load(std::memory_order_acquire)) {
                ::close(fd);
                return;
            }
            std::vector<Connection> open;
            open.reserve(_connections.size() + 1);
            for (Connection &c : _connections) {
                if (c.fd < 0)
                    finished.push_back(std::move(c.worker));
                else
                    open.push_back(std::move(c));
            }
            open.push_back(Connection{
                std::thread([this, fd] { serveConnection(fd); }), fd});
            _connections.swap(open);
        }
        for (std::thread &worker : finished)
            worker.join();
    }
}

void
SocketServer::serveConnection(int fd)
{
    FrameReader reader;
    std::uint8_t buffer[4096];
    std::vector<std::uint8_t> outBytes;
    // Sessions this connection opened and has not said Bye for; the
    // connection releases them when it ends, however it ends.
    std::vector<std::uint32_t> sessions;
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n <= 0)
            break;  // EOF or error: connection done.
        reader.feed(buffer, static_cast<std::size_t>(n));
        if (reader.error()) {
            // Unrecoverable framing error: poison only this
            // connection; the daemon keeps serving everyone else.
            _core.metrics().wireErrors.fetch_add(
                1, std::memory_order_relaxed);
            break;
        }
        bool ok = true;
        while (std::optional<WireFrame> frame = reader.next()) {
            if (frameType(*frame) == MsgType::Bye) {
                if (const std::optional<ByeMsg> bye = decodeBye(*frame))
                    sessions.erase(std::remove(sessions.begin(),
                                               sessions.end(),
                                               bye->sessionId),
                                   sessions.end());
            }
            const std::optional<WireFrame> reply =
                _core.serve(*frame, monotonicNanos());
            if (!reply)
                continue;
            if (frameType(*reply) == MsgType::HelloAck) {
                const std::optional<HelloAckMsg> ack =
                    decodeHelloAck(*reply);
                if (ack && ack->accepted())
                    sessions.push_back(ack->sessionId);
            }
            outBytes.clear();
            appendFramed(outBytes, *reply);
            if (!writeAll(fd, outBytes.data(), outBytes.size())) {
                ok = false;
                break;
            }
        }
        if (!ok)
            break;
    }
    for (const std::uint32_t id : sessions)
        _core.closeSession(id);
    // Forget the fd before closing it: once closed, its number can be
    // reused by an unrelated descriptor that stop() must not shut down.
    // Open fds are distinct, so the first match is this connection.
    {
        MutexLock lock(_mu);
        for (Connection &c : _connections) {
            if (c.fd == fd) {
                c.fd = -1;
                break;
            }
        }
    }
    ::close(fd);
}

void
SocketServer::stop()
{
    if (_stopping.exchange(true, std::memory_order_acq_rel))
        return;
    // Unblock accept() (shutdown is the portable wake-up) and join
    // the accept thread before closing: it reads _listenFd until then.
    if (_listenFd >= 0)
        ::shutdown(_listenFd, SHUT_RDWR);
    if (_acceptThread.joinable())
        _acceptThread.join();
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    std::vector<Connection> connections;
    {
        MutexLock lock(_mu);
        connections.swap(_connections);
        // Unblock worker read()s.
        for (const Connection &c : connections)
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    for (Connection &c : connections)
        c.worker.join();
    ::unlink(_path.c_str());
}

SocketClient::SocketClient(const std::string &path)
    : _fd(connectTo(path))
{
}

SocketClient::~SocketClient()
{
    close();
}

bool
SocketClient::send(const WireFrame &frame)
{
    if (_fd < 0)
        return false;
    std::vector<std::uint8_t> bytes;
    appendFramed(bytes, frame);
    if (!writeAll(_fd, bytes.data(), bytes.size())) {
        close();
        return false;
    }
    return true;
}

std::optional<WireFrame>
SocketClient::receive()
{
    if (_fd < 0)
        return std::nullopt;
    for (;;) {
        if (std::optional<WireFrame> frame = _reader.next())
            return frame;
        if (_reader.error()) {
            close();
            return std::nullopt;
        }
        std::uint8_t buffer[4096];
        const ssize_t n = ::read(_fd, buffer, sizeof buffer);
        if (n <= 0) {
            close();
            return std::nullopt;
        }
        _reader.feed(buffer, static_cast<std::size_t>(n));
    }
}

void
SocketClient::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

#else // !DEJAVU_HAVE_UNIX_SOCKETS

// Stub build for platforms without AF_UNIX: constructible, start()
// refuses, clients never connect. Callers gate on start()/
// connected(), so nothing else is reachable.

SocketServer::SocketServer(ServingServer &core, std::string path)
    : _core(core), _path(std::move(path))
{
}

SocketServer::~SocketServer() = default;

bool
SocketServer::start()
{
    warn("dejavud: unix sockets unavailable on this platform");
    return false;
}

void
SocketServer::stop()
{
}

void
SocketServer::acceptLoop()
{
}

void
SocketServer::serveConnection(int)
{
}

SocketClient::SocketClient(const std::string &)
{
}

SocketClient::~SocketClient() = default;

bool
SocketClient::send(const WireFrame &)
{
    return false;
}

std::optional<WireFrame>
SocketClient::receive()
{
    return std::nullopt;
}

void
SocketClient::close()
{
}

#endif // DEJAVU_HAVE_UNIX_SOCKETS

} // namespace serving
} // namespace dejavu
