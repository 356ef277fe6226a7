/**
 * @file
 * Value types of the DejaVu cache (§3.4, §3.6), which maps (workload
 * class, interference bucket) to the preferred resource allocation:
 * the key, its hash, the hit/miss counters and the CSV row grammar.
 * The cache itself is SharedRepository (core/shared_repository.hh).
 */

#ifndef DEJAVU_CORE_REPOSITORY_HH
#define DEJAVU_CORE_REPOSITORY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/allocation.hh"

namespace dejavu {

/** Repository key: workload class plus quantized interference. */
struct RepositoryKey
{
    int classId = 0;
    int interferenceBucket = 0;

    bool operator<(const RepositoryKey &o) const
    {
        if (classId != o.classId)
            return classId < o.classId;
        return interferenceBucket < o.interferenceBucket;
    }
    bool operator==(const RepositoryKey &o) const
    {
        return classId == o.classId &&
            interferenceBucket == o.interferenceBucket;
    }
};

/**
 * Hash for the O(1) reuse-phase lookup: both fields are small
 * non-negative ints, so pack them into one word and mix (splitmix64
 * finalizer) rather than combining two weak int hashes.
 */
struct RepositoryKeyHash
{
    std::size_t operator()(const RepositoryKey &key) const
    {
        std::uint64_t x =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(key.classId)) << 32)
            | static_cast<std::uint32_t>(key.interferenceBucket);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

/** Split one repository CSV line on commas (no quoting — the format
 *  never needs it). */
std::vector<std::string> splitRepositoryCsv(const std::string &line);

/**
 * Parse the trailing class,bucket,instances,type cells of one
 * repository CSV row. @p offset is the index of the class cell
 * within @p fields (0 for the legacy 4-column form, 1 after a kind
 * column). fatal() with @p lineNo context on unparsable or
 * out-of-range cells.
 */
std::pair<RepositoryKey, ResourceAllocation> parseRepositoryCells(
    const std::vector<std::string> &fields, std::size_t offset,
    std::size_t lineNo, const std::string &line);

/** Hit/miss/store counters of one repository attachment (or their
 *  fleet-wide sum; see RepositoryHandle::stats()). */
struct RepositoryStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
};

} // namespace dejavu

#endif // DEJAVU_CORE_REPOSITORY_HH
