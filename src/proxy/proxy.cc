#include "proxy/proxy.hh"

#include "common/logging.hh"

namespace dejavu {

DejaVuProxy::DejaVuProxy(Rng rng, Config config)
    : _config(config), _rng(rng),
      _cache(config.answerCacheCapacity)
{
    DEJAVU_ASSERT(_config.sessionSampleFraction > 0.0 &&
                  _config.sessionSampleFraction <= 1.0,
                  "bad session sample fraction");
    DEJAVU_ASSERT(_config.perRequestOverheadMs >= 0.0, "bad overhead");
    _sessionSalt = (static_cast<std::uint64_t>(_rng.nextU32()) << 32)
        | _rng.nextU32();
}

bool
DejaVuProxy::sessionSampled(std::uint64_t sessionId) const
{
    // Stable hash-based decision: a session is either entirely
    // mirrored or not at all (§3.2.1's session-granularity sampling).
    std::uint64_t h = sessionId ^ _sessionSalt;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    const double unit = static_cast<double>(h >> 11)
        * (1.0 / 9007199254740992.0);  // 2^53
    return unit < _config.sessionSampleFraction;
}

double
DejaVuProxy::onProductionRequest(const ProxiedRequest &request,
                                 std::uint64_t answer)
{
    ++_stats.productionRequests;
    if (!_config.profilingEnabled)
        return 0.0;

    // Every production answer refreshes the cache so the profiler can
    // mimic the absent back-end tier.
    _cache.put(request.requestHash, answer);

    if (sessionSampled(request.sessionId)) {
        ++_stats.mirroredRequests;
        // The duplicated request's clone reply is dropped to keep the
        // profiling transparent to the rest of the cluster.
        ++_stats.cloneRepliesDropped;
    }
    return _config.perRequestOverheadMs;
}

bool
DejaVuProxy::onProfilerRequest(const ProxiedRequest &request)
{
    // Request permutations (e.g. differing timestamps) occasionally
    // hash differently than the production twin did.
    if (_rng.bernoulli(_config.permutationMissRate)) {
        // Model the permuted hash as a lookup of a fresh key.
        (void)_cache.get(request.requestHash ^ 0x5bd1e995u);
        return false;
    }
    return _cache.get(request.requestHash).has_value();
}

double
DejaVuProxy::networkOverheadFraction(int instances, double inboundShare)
{
    DEJAVU_ASSERT(instances >= 1, "need >= 1 instance");
    DEJAVU_ASSERT(inboundShare > 0.0 && inboundShare <= 1.0,
                  "bad inbound share");
    // The proxy duplicates the inbound traffic of one instance:
    // 1/instances of the service's inbound traffic, which is
    // inboundShare of total traffic.
    return inboundShare / instances;
}

} // namespace dejavu
