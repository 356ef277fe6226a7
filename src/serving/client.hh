/**
 * @file
 * ServingClient: the typed client every serving consumer uses —
 * controllers-as-clients, the conformance tests, the bench and the
 * dejavud self-test all speak to the daemon through this one class.
 *
 * The client owns the session handshake and the encode/round-trip/
 * decode cycle; callers deal in ServiceKind, metric vectors and
 * AnswerMsg, never in raw frames. Two interchangeable transports,
 * both carrying *identical bytes* (the conformance suite checks
 * each against the simulator):
 *
 *  - direct: frames are served by a synchronous ServingServer::serve
 *    call on the caller's thread — the embedded-library shape and
 *    the fastest path (no hand-off);
 *  - socket: frames cross an AF_UNIX stream to a dejavud worker
 *    thread, usually in another process (socket.hh).
 *
 * A client is driven by one thread (it is a session: see
 * session.hh). decide() on a rejected/unconnected client is fatal —
 * the caller must check hello()'s verdict and run its local
 * full-capacity fallback when refused.
 */

#ifndef DEJAVU_SERVING_CLIENT_HH
#define DEJAVU_SERVING_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serving/server.hh"
#include "serving/wire.hh"

namespace dejavu {
namespace serving {

class SocketClient;

/**
 * One session's client endpoint. See the file comment.
 */
class ServingClient
{
  public:
    /** Direct mode: serve() runs on this thread. */
    explicit ServingClient(ServingServer &server);

    /** Socket mode: frames cross @p socket's AF_UNIX stream. */
    explicit ServingClient(SocketClient &socket);

    /**
     * Open the session. @p fallback is this service's full-capacity
     * ceiling (served on unknowns, lost entries, budget breaches).
     * @return false when the daemon refused (admission gate full or
     * kind not served) — the caller then answers locally.
     */
    bool hello(ServiceKind kind, const ResourceAllocation &fallback,
               const std::string &owner = "");

    /** True between a successful hello() and bye(). */
    bool connected() const
    {
        return _session != HelloAckMsg::kRejected;
    }

    std::uint32_t sessionId() const { return _session; }

    /**
     * Ask the daemon for the allocation answering one monitor
     * sample (@p metricValues in schema column order). Fatal when
     * not connected or when the daemon's reply fails to decode.
     */
    AnswerMsg decide(const std::vector<double> &metricValues);

    /** Publish this session's interference-bucket transition
     *  (fire-and-forget): later lookups use that bucket's entries. */
    void publishBucket(int bucket);

    /** Close the session (frees the daemon-side admission slot). */
    void bye();

  private:
    /** Send @p frame; when @p expectReply, block for the reply and
     *  leave it in @p reply. */
    void roundTrip(const WireFrame &frame, bool expectReply,
                   WireFrame &reply);

    ServingServer *_direct = nullptr;
    SocketClient *_socket = nullptr;
    std::uint32_t _session = HelloAckMsg::kRejected;
    std::uint32_t _seq = 0;
};

} // namespace serving
} // namespace dejavu

#endif // DEJAVU_SERVING_CLIENT_HH
