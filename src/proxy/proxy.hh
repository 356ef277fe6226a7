/**
 * @file
 * The DejaVu proxy (§3.2.1): sits between the application and
 * transport layers, duplicates the incoming traffic of the profiled
 * instance to the profiling environment, samples at *client session*
 * granularity (avoiding non-existent-cookie anomalies), drops the
 * clone's replies, and maintains the answer cache for mid-tier
 * profiling. Its production-side cost is a small constant per-request
 * overhead (§4.4 measures ~3 ms).
 */

#ifndef DEJAVU_PROXY_PROXY_HH
#define DEJAVU_PROXY_PROXY_HH

#include <cstdint>

#include "common/random.hh"
#include "proxy/answer_cache.hh"

namespace dejavu {

/** One client request as the proxy sees it. */
struct ProxiedRequest
{
    std::uint64_t sessionId = 0;
    std::uint64_t requestHash = 0;
    bool write = false;
};

/**
 * Session-sampling duplicating proxy.
 */
class DejaVuProxy
{
  public:
    struct Config
    {
        /** Fraction of client *sessions* mirrored to the profiler;
         *  ≈ one instance's share of the service (§4.4: "1/n of the
         *  incoming network traffic"). */
        double sessionSampleFraction = 0.10;
        /** Per-request latency the proxy adds in production (ms);
         *  §4.4 measures about 3 ms. */
        double perRequestOverheadMs = 3.0;
        /** Probability a mirrored request misses the answer cache due
         *  to request permutations (timestamps etc., §3.2.1). */
        double permutationMissRate = 0.02;
        /** Profiling on/off (off = no duplication, no overhead). */
        bool profilingEnabled = true;
        std::size_t answerCacheCapacity = 65536;
    };

    struct Stats
    {
        std::uint64_t productionRequests = 0;
        std::uint64_t mirroredRequests = 0;
        std::uint64_t mirroredSessions = 0;
        std::uint64_t totalSessions = 0;
        std::uint64_t cloneRepliesDropped = 0;
    };

    DejaVuProxy(Rng rng, Config config);

    /**
     * Handle one production request carrying the back-end's answer.
     * Feeds the answer cache, mirrors the request if its session is
     * sampled, and returns the latency overhead (ms) added to this
     * production request.
     */
    double onProductionRequest(const ProxiedRequest &request,
                               std::uint64_t answer);

    /**
     * Profiler-side replay of a mirrored request: resolves the
     * back-end answer from the cache (mimicking the database).
     * @return true on answer-cache hit.
     */
    bool onProfilerRequest(const ProxiedRequest &request);

    /** Deterministic per-session sampling decision. */
    bool sessionSampled(std::uint64_t sessionId) const;

    /**
     * Network overhead as a fraction of total service traffic for a
     * service with @p instances instances and the given inbound share
     * of total traffic (§4.4's example: 100 instances, 1:10 ratio →
     * 0.1%).
     */
    static double networkOverheadFraction(int instances,
                                          double inboundShare = 0.1);

    const Stats &stats() const { return _stats; }
    AnswerCache &answerCache() { return _cache; }
    const Config &config() const { return _config; }

    void setProfilingEnabled(bool enabled)
    { _config.profilingEnabled = enabled; }

  private:
    Config _config;
    Rng _rng;
    AnswerCache _cache;
    Stats _stats;
    std::uint64_t _sessionSalt;
};

} // namespace dejavu

#endif // DEJAVU_PROXY_PROXY_HH
