#include "serving/socket.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"

#if defined(__unix__) || defined(__APPLE__)
#define DEJAVU_HAVE_UNIX_SOCKETS 1
#include <cerrno>
#include <sched.h>
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

/** Returns @p fd. Where send() has no MSG_NOSIGNAL (Apple), first
 *  sets SO_NOSIGPIPE on it, so that a write to a hung-up peer fails
 *  with EPIPE instead of raising SIGPIPE. */
int
withoutSigpipe(int fd)
{
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
    const int on = 1;
    if (fd >= 0)
        ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof on);
#endif
    return fd;
}

/** Full write; false on error. A peer that hung up fails it with
 *  EPIPE: that ends the connection, never the process (SIGPIPE's
 *  default action would kill it). */
bool
sendAll(int fd, const std::uint8_t *data, std::size_t size)
{
#ifdef MSG_NOSIGNAL
    constexpr int kFlags = MSG_NOSIGNAL;
#else
    constexpr int kFlags = 0;  // withoutSigpipe() set SO_NOSIGPIPE.
#endif
    while (size > 0) {
        const ssize_t n = ::send(fd, data, size, kFlags);
        if (n <= 0)
            return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** How long a connection end polls for bytes before it blocks. It
 *  must outlast a closed-loop round trip (~7 us at 2 connections on 4
 *  vCPUs). Beyond that it is not a tuning point: in a closed-loop
 *  socket plan at 2 connections, two runs each, 5 us read 118-170k
 *  lookups/s, near blocking reads' 123k, and 20, 50 and 200 us read
 *  222-280k. */
constexpr std::uint64_t kPollWindowNanos = 50'000;

/**
 * read() that polls first: non-blocking reads, yielding the core
 * between empty attempts, for kPollWindowNanos, then one blocking
 * read(). Bytes that arrive within the window spare this thread its
 * sleep and wake-up, the larger part of a round trip. The yield
 * matters: when threads outnumber cores, a plain spin holds the core
 * the peer needs to answer. EOF, errors and stop()'s shutdown() end
 * the wait as they end a blocking read().
 */
ssize_t
pollThenRead(int fd, std::uint8_t *buffer, std::size_t size)
{
    const std::uint64_t start = monotonicNanos();
    do {
        const ssize_t n = ::recv(fd, buffer, size, MSG_DONTWAIT);
        if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            return n;
        // Answers are the same bytes however the threads interleave
        // (SocketTransportMatchesDirect).
        // lint-allow(sleep): transport timing never reaches an answer
        ::sched_yield();
    } while (monotonicNanos() - start < kPollWindowNanos);
    return ::read(fd, buffer, size);
}

int
connectTo(const std::string &path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        return -1;
    const int fd = withoutSigpipe(::socket(AF_UNIX, SOCK_STREAM, 0));
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
        const int fd =
            withoutSigpipe(::accept(_listenFd, nullptr, nullptr));
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
    WireFrame request;
    WireFrame reply;
    std::vector<std::uint8_t> outBytes;
    // Sessions this connection opened and has not said Bye for; the
    // connection releases them when it ends, however it ends.
    std::vector<std::uint32_t> sessions;
    // Whether this connection's client sends its next request as soon
    // as it has the last reply (a closed loop): its last wait for
    // bytes ended within the poll window. Only then does the worker
    // poll; a client that sends at its own pace, as a live service's
    // monitor does, would have it burn a window of CPU per frame.
    bool closedLoop = false;
    for (;;) {
        const std::uint64_t waitStart = monotonicNanos();
        const ssize_t n = closedLoop
            ? pollThenRead(fd, buffer, sizeof buffer)
            : ::read(fd, buffer, sizeof buffer);
        if (n <= 0)
            break;  // EOF or error: connection done.
        closedLoop = monotonicNanos() - waitStart < kPollWindowNanos;
        reader.feed(buffer, static_cast<std::size_t>(n));
        if (reader.error()) {
            // Unrecoverable framing error: poison only this
            // connection; the daemon keeps serving everyone else.
            _core.metrics().wireErrors.inc();
            break;
        }
        bool ok = true;
        while (reader.next(request)) {
            if (frameType(request) == MsgType::Bye) {
                if (const std::optional<ByeMsg> bye = decodeBye(request))
                    sessions.erase(std::remove(sessions.begin(),
                                               sessions.end(),
                                               bye->sessionId),
                                   sessions.end());
            }
            if (!_core.serve(request, monotonicNanos(), reply))
                continue;
            if (frameType(reply) == MsgType::HelloAck) {
                const std::optional<HelloAckMsg> ack =
                    decodeHelloAck(reply);
                if (ack && ack->accepted())
                    sessions.push_back(ack->sessionId);
            }
            outBytes.clear();
            appendFramed(outBytes, reply);
            if (!sendAll(fd, outBytes.data(), outBytes.size())) {
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
    _sendBytes.clear();
    appendFramed(_sendBytes, frame);
    if (!sendAll(_fd, _sendBytes.data(), _sendBytes.size())) {
        close();
        return false;
    }
    return true;
}

bool
SocketClient::receive(WireFrame &frame)
{
    if (_fd < 0)
        return false;
    for (;;) {
        if (_reader.next(frame))
            return true;
        if (_reader.error()) {
            close();
            return false;
        }
        std::uint8_t buffer[4096];
        const ssize_t n = pollThenRead(_fd, buffer, sizeof buffer);
        if (n <= 0) {
            close();
            return false;
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

bool
SocketClient::receive(WireFrame &)
{
    return false;
}

void
SocketClient::close()
{
}

#endif // DEJAVU_HAVE_UNIX_SOCKETS

} // namespace serving
} // namespace dejavu
