/**
 * @file
 * AF_UNIX stream front-end for dejavud: the out-of-process transport.
 *
 * SocketServer binds a filesystem socket, accepts connections on a
 * dedicated thread and serves each connection on its own worker
 * thread: read bytes, reassemble frames (wire.hh FrameReader), stamp
 * arrival, ServingServer::serve(), write the framed reply back. One
 * worker per connection keeps the session contract for free — a
 * connection *is* a session's driving thread.
 *
 * Failure semantics (docs/SERVING.md): a framing error poisons only
 * that connection (it is dropped; the daemon keeps serving); when a
 * connection ends — EOF, error or stop() — every session it opened
 * and did not say Bye for is closed, releasing its admission slot.
 * Its worker thread is joined when the next connection arrives, so a
 * long-lived daemon does not keep one thread per connection it ever
 * served.
 * On platforms without
 * AF_UNIX the class still compiles; start() returns false and logs,
 * so callers gate on it (the bench and tests skip socket cells).
 */

#ifndef DEJAVU_SERVING_SOCKET_HH
#define DEJAVU_SERVING_SOCKET_HH

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "serving/server.hh"
#include "serving/wire.hh"

namespace dejavu {
namespace serving {

/**
 * Listening front-end. start() → serve → stop() (or destruction).
 */
class SocketServer
{
  public:
    /** @p core must outlive the server; @p path is the filesystem
     *  socket address (unlinked on bind and on stop). */
    SocketServer(ServingServer &core, std::string path);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind, listen and start accepting. False (with a log line) on
     *  any socket error or unsupported platform. */
    bool start();

    /** Stop accepting, unblock and join every worker. Idempotent. */
    void stop();

    const std::string &path() const { return _path; }

    /** Connections accepted and not yet ended. */
    std::size_t openConnections() const;

    /** Worker threads not yet joined: one per open connection, plus
     *  those of connections that ended since the last accept. */
    std::size_t workerThreads() const;

  private:
    /** One accepted connection and the worker serving it. */
    struct Connection
    {
        std::thread worker;
        /** The connection's fd; -1 once the worker has let go of it
         *  and is returning, ready to be joined. */
        int fd = -1;
    };

    void acceptLoop();
    void serveConnection(int fd);

    ServingServer &_core;
    std::string _path;
    int _listenFd = -1;
    std::atomic<bool> _stopping{false};
    std::thread _acceptThread;

    mutable Mutex _mu;
    std::vector<Connection> _connections GUARDED_BY(_mu);
};

/**
 * Client side of the AF_UNIX stream: connect, send frames, block on
 * replies. One instance per session-driving thread.
 */
class SocketClient
{
  public:
    /** Connects immediately; check connected(). */
    explicit SocketClient(const std::string &path);
    ~SocketClient();

    SocketClient(const SocketClient &) = delete;
    SocketClient &operator=(const SocketClient &) = delete;

    bool connected() const { return _fd >= 0; }

    /** Write one framed message; false on a broken connection. */
    bool send(const WireFrame &frame);

    /** Block for the next frame; nullopt on EOF/error (the
     *  connection is dead afterwards). */
    std::optional<WireFrame> receive();

    void close();

  private:
    int _fd = -1;
    FrameReader _reader;
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_SOCKET_HH
