/**
 * @file
 * Request mixes: the *type* dimension of a workload.
 *
 * §3.3 stresses that a workload is characterised by both its intensity
 * (request rate) and its type (e.g. read/write ratio). A RequestMix
 * captures the type axis as resource-demand weights; service models
 * turn them into per-ECU capacity and the counter simulator turns them
 * into HPC signatures.
 */

#ifndef DEJAVU_WORKLOAD_REQUEST_MIX_HH
#define DEJAVU_WORKLOAD_REQUEST_MIX_HH

#include <string>
#include <vector>

namespace dejavu {

/**
 * Resource-demand description of one request population.
 */
struct RequestMix
{
    std::string name;
    double readFraction = 0.5;   ///< Reads vs writes.
    double cpuWeight = 1.0;      ///< Relative CPU demand per request.
    double memWeight = 1.0;      ///< Relative memory pressure.
    double ioWeight = 1.0;       ///< Relative disk/network demand.
    double staticFraction = 0.0; ///< Static-content share (web mixes).

    bool operator==(const RequestMix &o) const
    { return name == o.name; }
};

/** @name Benchmark mix catalog (paper §4, "Internet services") @{ */

/** Cassandra update-heavy: 95% writes, 5% reads (Figure 6/7 runs). */
RequestMix cassandraUpdateHeavy();

/** Cassandra read-heavy inversion (used by Figure 4 type sweeps). */
RequestMix cassandraReadHeavy();

/** Cassandra balanced 50/50 mix. */
RequestMix cassandraBalanced();

/** SPECweb2009 banking: dynamic, CPU-bound, HTTPS-like. */
RequestMix specwebBanking();

/** SPECweb2009 e-commerce: mixed static/dynamic. */
RequestMix specwebEcommerce();

/** SPECweb2009 support: large read-only downloads, I/O-bound
 *  (the mix driven through Figures 9 and 10). */
RequestMix specwebSupport();

/** RUBiS browsing mix: read-dominated page views. */
RequestMix rubisBrowsing();

/** RUBiS bidding mix: 15% read-write interactions (default mix). */
RequestMix rubisBidding();

/** @name YCSB core workloads (the BASK study's mixes) @{ */

/** YCSB workload A, update-heavy: 50% reads / 50% updates. */
RequestMix ycsbUpdateHeavy();

/** YCSB workload B, read-heavy: 95% reads / 5% updates. */
RequestMix ycsbReadHeavy();

/** YCSB workload C, read-only: 100% reads. */
RequestMix ycsbReadOnly();

/** YCSB workload D, read-latest: 95% reads / 5% inserts, skewed to
 *  the most recent records (cache-friendly reads, append writes). */
RequestMix ycsbReadLatest();

/** @} */

/** @} */

/**
 * A workload: one request mix at one intensity. Intensity is expressed
 * as the number of emulated clients, as in the paper's benchmarks.
 */
struct Workload
{
    RequestMix mix;
    double clients = 0.0;

    bool operator==(const Workload &o) const
    { return mix == o.mix && clients == o.clients; }
};

} // namespace dejavu

#endif // DEJAVU_WORKLOAD_REQUEST_MIX_HH
