#include "workload/request_mix.hh"

namespace dejavu {

RequestMix
cassandraUpdateHeavy()
{
    return {
        .name = "cassandra-update-heavy",
        .readFraction = 0.05,
        .cpuWeight = 1.2,
        .memWeight = 1.4,
        .ioWeight = 1.1,
        .staticFraction = 0.0,
    };
}

RequestMix
cassandraReadHeavy()
{
    return {
        .name = "cassandra-read-heavy",
        .readFraction = 0.95,
        .cpuWeight = 0.8,
        .memWeight = 1.0,
        .ioWeight = 0.9,
        .staticFraction = 0.0,
    };
}

RequestMix
cassandraBalanced()
{
    return {
        .name = "cassandra-balanced",
        .readFraction = 0.50,
        .cpuWeight = 1.0,
        .memWeight = 1.2,
        .ioWeight = 1.0,
        .staticFraction = 0.0,
    };
}

RequestMix
specwebBanking()
{
    return {
        .name = "specweb-banking",
        .readFraction = 0.80,
        .cpuWeight = 1.5,
        .memWeight = 0.9,
        .ioWeight = 0.6,
        .staticFraction = 0.15,
    };
}

RequestMix
specwebEcommerce()
{
    return {
        .name = "specweb-ecommerce",
        .readFraction = 0.85,
        .cpuWeight = 1.1,
        .memWeight = 1.0,
        .ioWeight = 0.9,
        .staticFraction = 0.30,
    };
}

RequestMix
specwebSupport()
{
    return {
        .name = "specweb-support",
        .readFraction = 1.00,
        .cpuWeight = 0.5,
        .memWeight = 0.7,
        .ioWeight = 1.8,
        .staticFraction = 0.85,
    };
}

RequestMix
rubisBrowsing()
{
    return {
        .name = "rubis-browsing",
        .readFraction = 1.00,
        .cpuWeight = 0.9,
        .memWeight = 0.9,
        .ioWeight = 0.8,
        .staticFraction = 0.40,
    };
}

RequestMix
rubisBidding()
{
    return {
        .name = "rubis-bidding",
        .readFraction = 0.85,
        .cpuWeight = 1.1,
        .memWeight = 1.0,
        .ioWeight = 1.0,
        .staticFraction = 0.25,
    };
}

RequestMix
ycsbUpdateHeavy()
{
    return {
        .name = "ycsb-update-heavy",
        .readFraction = 0.50,
        .cpuWeight = 1.1,
        .memWeight = 1.5,
        .ioWeight = 1.2,
        .staticFraction = 0.0,
    };
}

RequestMix
ycsbReadHeavy()
{
    return {
        .name = "ycsb-read-heavy",
        .readFraction = 0.95,
        .cpuWeight = 0.9,
        .memWeight = 1.2,
        .ioWeight = 0.8,
        .staticFraction = 0.0,
    };
}

RequestMix
ycsbReadOnly()
{
    return {
        .name = "ycsb-read-only",
        .readFraction = 1.00,
        .cpuWeight = 0.7,
        .memWeight = 1.1,
        .ioWeight = 0.6,
        .staticFraction = 0.0,
    };
}

RequestMix
ycsbReadLatest()
{
    // Inserts, not updates: reads hit the freshest (cached) records
    // and writes append, so memory pressure dominates I/O.
    return {
        .name = "ycsb-read-latest",
        .readFraction = 0.95,
        .cpuWeight = 0.8,
        .memWeight = 1.6,
        .ioWeight = 0.7,
        .staticFraction = 0.0,
    };
}

} // namespace dejavu
