#include "core/shared_repository.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace dejavu {

const char *
repositorySharingName(RepositorySharing sharing)
{
    switch (sharing) {
      case RepositorySharing::Private:
        return "private";
      case RepositorySharing::Shared:
        return "shared";
    }
    fatal("unknown repository sharing mode: ",
          static_cast<int>(sharing));
}

RepositorySharing
repositorySharingFromName(const std::string &name)
{
    if (name == "private")
        return RepositorySharing::Private;
    if (name == "shared")
        return RepositorySharing::Shared;
    fatal("unknown repository sharing mode: ", name,
          " (use private|shared)");
}

// ---------------------------------------------------------------------
// RepositorySnapshot
// ---------------------------------------------------------------------

std::optional<ResourceAllocation>
RepositorySnapshot::find(const RepositoryKey &key) const
{
    const auto it = std::lower_bound(
        _entries.begin(), _entries.end(), key,
        [](const Entry &e, const RepositoryKey &k) {
            return e.key < k;
        });
    if (it == _entries.end() || !(it->key == key))
        return std::nullopt;
    return it->allocation;
}

// ---------------------------------------------------------------------
// RepositoryHandle: thin id-carrying forwarders.
// ---------------------------------------------------------------------

namespace {

[[noreturn]] void
unattached(const char *op)
{
    fatal("repository handle: ", op, "() on an unattached handle");
}

} // namespace

ServiceKind
RepositoryHandle::kind() const
{
    if (!attached())
        unattached("kind");
    return _repo->attachment(_id).kind;
}

std::string
RepositoryHandle::owner() const
{
    if (!attached())
        unattached("owner");
    return _repo->attachment(_id).owner;
}

void
RepositoryHandle::store(const RepositoryKey &key,
                        const ResourceAllocation &allocation)
{
    if (!attached())
        unattached("store");
    _repo->handleStore(_id, key, allocation);
}

std::optional<ResourceAllocation>
RepositoryHandle::lookup(const RepositoryKey &key)
{
    if (!attached())
        unattached("lookup");
    return _repo->handleLookup(_id, key);
}

std::optional<ResourceAllocation>
RepositoryHandle::peek(const RepositoryKey &key) const
{
    if (!attached())
        unattached("peek");
    return _repo->handlePeek(_id, key);
}

bool
RepositoryHandle::contains(const RepositoryKey &key) const
{
    return peek(key).has_value();
}

std::size_t
RepositoryHandle::entries() const
{
    if (!attached())
        unattached("entries");
    return _repo->handleEntries(_id);
}

std::vector<RepositoryKey>
RepositoryHandle::keys() const
{
    if (!attached())
        unattached("keys");
    return _repo->handleKeys(_id);
}

void
RepositoryHandle::clear()
{
    if (!attached())
        unattached("clear");
    _repo->handleClear(_id);
}

RepositoryStats
RepositoryHandle::stats() const
{
    if (!attached())
        unattached("stats");
    return _repo->attachmentStats(_id);
}

std::uint64_t
RepositoryHandle::crossHits() const
{
    if (!attached())
        unattached("crossHits");
    return _repo->attachment(_id).crossHits.load(
        std::memory_order_relaxed);
}

std::uint64_t
RepositoryHandle::reusedEntries() const
{
    if (!attached())
        unattached("reusedEntries");
    return _repo->attachmentReusedEntries(_id);
}

double
RepositoryHandle::hitRate() const
{
    const RepositoryStats s = stats();
    if (s.lookups == 0)
        return 0.0;
    return static_cast<double>(s.hits) / s.lookups;
}

std::string
RepositoryHandle::toString() const
{
    if (!attached())
        return "repository[unattached]{}";
    std::ostringstream os;
    os << "repository[" << serviceKindName(kind()) << "]{";
    bool first = true;
    for (const RepositoryKey &key : keys()) {
        if (!first)
            os << ", ";
        first = false;
        os << "(c" << key.classId << ",i" << key.interferenceBucket
           << ")->" << peek(key)->toString();
    }
    os << "}";
    return os.str();
}

// ---------------------------------------------------------------------
// SharedRepository
// ---------------------------------------------------------------------

SharedRepository::SharedRepository(int shards)
{
    DEJAVU_ASSERT(shards >= 1, "shared repository needs >= 1 shard, "
                  "got ", shards);
    _shards.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
        _shards.push_back(std::make_unique<Shard>());
}

SharedRepository::SharedRepository(SharedRepository &&other) noexcept
{
    // Lock both registries: the source against concurrent readers,
    // the (freshly constructed) destination to satisfy the analysis.
    // The shard vector and the attachment deque move as spines only —
    // no Shard or Attachment (with their pinned mutexes/atomics) is
    // itself moved. The moved-from repository keeps no shards: any
    // further table access through it is a fatal assertion, by
    // design (move before attaching, factory returns only).
    MutexLock source(other._amu);
    MutexLock self(_amu);
    _shards = std::move(other._shards);
    _attachments = std::move(other._attachments);
    _live = other._live;
    other._live = 0;
}

SharedRepository::Shard &
SharedRepository::shardOf(ServiceKind kind,
                          const RepositoryKey &key) const
{
    DEJAVU_ASSERT(!_shards.empty(),
                  "shared repository used after being moved from");
    // Deterministic, process-independent placement: splitmix64 over
    // the key (the same mix RepositoryKeyHash uses) xor a golden-
    // ratio spread of the kind, so identical contents land on
    // identical stripes in every run and every process.
    const std::size_t mixed = RepositoryKeyHash{}(key) ^
        (static_cast<std::size_t>(kind) * 0x9e3779b97f4a7c15ULL);
    return *_shards[mixed % _shards.size()];
}

std::uint64_t
SharedRepository::version() const
{
    std::uint64_t total = 0;
    for (const auto &shard : _shards)
        total += shard->generation.load(std::memory_order_acquire);
    return total;
}

RepositorySnapshot
SharedRepository::snapshot(ServiceKind kind) const
{
    RepositorySnapshot snap;
    snap._kind = kind;
    // Version first: a store racing the collection below can make
    // this snapshot look stale immediately (forcing a refresh), but
    // never silently current.
    snap._version = version();
    snap._entries = collectKind(kind);
    return snap;
}

RepositoryHandle
SharedRepository::attach(ServiceKind kind, std::string owner)
{
    MutexLock lock(_amu);
    _attachments.emplace_back();
    Attachment &a = _attachments.back();
    a.kind = kind;
    a.owner = std::move(owner);
    ++_live;
    return RepositoryHandle(
        this, static_cast<int>(_attachments.size()) - 1);
}

void
SharedRepository::detach(RepositoryHandle &handle)
{
    DEJAVU_ASSERT(handle._repo == this,
                  "detach of a handle from another repository");
    {
        MutexLock lock(_amu);
        DEJAVU_ASSERT(handle._id >= 0 &&
                      handle._id <
                          static_cast<int>(_attachments.size()),
                      "no such attachment: ", handle._id);
        Attachment &a =
            _attachments[static_cast<std::size_t>(handle._id)];
        DEJAVU_ASSERT(a.live.load(std::memory_order_relaxed),
                      "attachment ", handle._id, " already detached");
        a.live.store(false, std::memory_order_relaxed);
        --_live;
    }
    handle = RepositoryHandle();
}

SharedRepository::Attachment &
SharedRepository::attachment(int id) const NO_THREAD_SAFETY_ANALYSIS
{
    // Deliberately outside the analysis: the registry lock protects
    // only the bounds-checked index into the deque spine; the
    // returned record outlives the lock by design. That is safe
    // because attachments are pinned (deque, never erased) and every
    // mutable field is an atomic or guarded by the record's own
    // mutex.
    MutexLock lock(_amu);
    DEJAVU_ASSERT(id >= 0 &&
                  id < static_cast<int>(_attachments.size()),
                  "no such attachment: ", id);
    return _attachments[static_cast<std::size_t>(id)];
}

int
SharedRepository::attachments() const
{
    MutexLock lock(_amu);
    return _live;
}

int
SharedRepository::totalAttachments() const
{
    MutexLock lock(_amu);
    return static_cast<int>(_attachments.size());
}

RepositoryStats
SharedRepository::attachmentStats(int id) const
{
    const Attachment &a = attachment(id);
    RepositoryStats s;
    s.lookups = a.lookups.load(std::memory_order_relaxed);
    s.hits = a.hits.load(std::memory_order_relaxed);
    s.misses = a.misses.load(std::memory_order_relaxed);
    s.stores = a.stores.load(std::memory_order_relaxed);
    return s;
}

std::uint64_t
SharedRepository::attachmentReusedEntries(int id) const
{
    const Attachment &a = attachment(id);
    MutexLock lock(a.mu);
    return a.reused.size();
}

void
SharedRepository::handleStore(int id, const RepositoryKey &key,
                              const ResourceAllocation &allocation)
{
    Attachment &a = attachment(id);
    DEJAVU_ASSERT(a.live.load(std::memory_order_relaxed),
                  "store through a detached attachment");
    a.stores.fetch_add(1, std::memory_order_relaxed);
    Shard &s = shardOf(a.kind, key);
    MutexLock lock(s.mu);
    s.byKind[a.kind][key] = Entry{allocation, id};
    s.generation.fetch_add(1, std::memory_order_release);
}

std::optional<ResourceAllocation>
SharedRepository::handleLookup(int id, const RepositoryKey &key)
{
    Attachment &a = attachment(id);
    DEJAVU_ASSERT(a.live.load(std::memory_order_relaxed),
                  "lookup through a detached attachment");
    a.lookups.fetch_add(1, std::memory_order_relaxed);

    std::optional<ResourceAllocation> result;
    int writer = -1;
    {
        Shard &s = shardOf(a.kind, key);
        MutexLock lock(s.mu);
        const auto kt = s.byKind.find(a.kind);
        if (kt != s.byKind.end()) {
            const auto it = kt->second.find(key);
            if (it != kt->second.end()) {
                result = it->second.allocation;
                writer = it->second.writer;
            }
        }
    }

    if (!result) {
        a.misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }

    a.hits.fetch_add(1, std::memory_order_relaxed);
    if (writer != id) {
        a.crossHits.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(a.mu);
        a.reused.insert(key);
    }
    return result;
}

std::optional<ResourceAllocation>
SharedRepository::handlePeek(int id, const RepositoryKey &key) const
{
    return peek(attachment(id).kind, key);
}

void
SharedRepository::handleClear(int id)
{
    Attachment &a = attachment(id);
    DEJAVU_ASSERT(a.live.load(std::memory_order_relaxed),
                  "clear through a detached attachment");
    // Only this attachment's writes are invalidated: a peer's tuned
    // allocations are still valid for the peer (and for reuse).
    for (const auto &shardPtr : _shards) {
        Shard &s = *shardPtr;
        MutexLock lock(s.mu);
        const auto kt = s.byKind.find(a.kind);
        if (kt == s.byKind.end())
            continue;
        bool erased = false;
        for (auto it = kt->second.begin();
             it != kt->second.end();) {
            if (it->second.writer == id) {
                it = kt->second.erase(it);
                erased = true;
            } else {
                ++it;
            }
        }
        if (erased)
            s.generation.fetch_add(1, std::memory_order_release);
    }
}

std::size_t
SharedRepository::handleEntries(int id) const
{
    return entries(attachment(id).kind);
}

std::vector<RepositoryKey>
SharedRepository::handleKeys(int id) const
{
    return keys(attachment(id).kind);
}

RepositoryStats
SharedRepository::aggregateStats() const
{
    MutexLock lock(_amu);
    RepositoryStats total;
    for (const Attachment &a : _attachments) {
        total.lookups += a.lookups.load(std::memory_order_relaxed);
        total.hits += a.hits.load(std::memory_order_relaxed);
        total.misses += a.misses.load(std::memory_order_relaxed);
        total.stores += a.stores.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t
SharedRepository::aggregateCrossHits() const
{
    MutexLock lock(_amu);
    std::uint64_t total = 0;
    for (const Attachment &a : _attachments)
        total += a.crossHits.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
SharedRepository::aggregateReusedEntries() const
{
    // Lock order: registry lock, then each attachment's own mutex —
    // no handle path ever nests them the other way around.
    MutexLock lock(_amu);
    std::uint64_t total = 0;
    for (const Attachment &a : _attachments) {
        MutexLock alock(a.mu);
        total += a.reused.size();
    }
    return total;
}

double
SharedRepository::hitRate() const
{
    const RepositoryStats total = aggregateStats();
    if (total.lookups == 0)
        return 0.0;
    return static_cast<double>(total.hits) / total.lookups;
}

std::size_t
SharedRepository::entries() const
{
    std::size_t total = 0;
    for (const auto &shardPtr : _shards) {
        Shard &s = *shardPtr;
        MutexLock lock(s.mu);
        for (const auto &[kind, table] : s.byKind)
            total += table.size();
    }
    return total;
}

std::size_t
SharedRepository::entries(ServiceKind kind) const
{
    std::size_t total = 0;
    for (const auto &shardPtr : _shards) {
        Shard &s = *shardPtr;
        MutexLock lock(s.mu);
        const auto it = s.byKind.find(kind);
        if (it != s.byKind.end())
            total += it->second.size();
    }
    return total;
}

std::vector<ServiceKind>
SharedRepository::collectKinds() const
{
    // std::map keeps each shard's kinds ascending; the merge only
    // has to union them, order is preserved.
    std::vector<ServiceKind> out;
    for (const auto &shardPtr : _shards) {
        Shard &s = *shardPtr;
        MutexLock lock(s.mu);
        for (const auto &[kind, table] : s.byKind)
            if (!table.empty())
                out.push_back(kind);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<ServiceKind>
SharedRepository::kinds() const
{
    return collectKinds();
}

std::vector<RepositorySnapshot::Entry>
SharedRepository::collectKind(ServiceKind kind) const
{
    std::vector<RepositorySnapshot::Entry> out;
    for (const auto &shardPtr : _shards) {
        Shard &s = *shardPtr;
        MutexLock lock(s.mu);
        const auto it = s.byKind.find(kind);
        if (it == s.byKind.end())
            continue;
        // lint-allow(unordered-iteration): collected then sorted below
        for (const auto &[key, entry] : it->second)
            out.push_back({key, entry.allocation});
    }
    std::sort(out.begin(), out.end(),
              [](const RepositorySnapshot::Entry &a,
                 const RepositorySnapshot::Entry &b) {
                  return a.key < b.key;
              });
    return out;
}

std::vector<RepositoryKey>
SharedRepository::keys(ServiceKind kind) const
{
    std::vector<RepositoryKey> out;
    for (const RepositorySnapshot::Entry &e : collectKind(kind))
        out.push_back(e.key);
    return out;
}

std::optional<ResourceAllocation>
SharedRepository::peek(ServiceKind kind, const RepositoryKey &key) const
{
    Shard &s = shardOf(kind, key);
    MutexLock lock(s.mu);
    const auto it = s.byKind.find(kind);
    if (it == s.byKind.end())
        return std::nullopt;
    const auto et = it->second.find(key);
    if (et == it->second.end())
        return std::nullopt;
    return et->second.allocation;
}

std::string
SharedRepository::toString() const
{
    std::ostringstream os;
    os << "shared-repository{";
    bool firstKind = true;
    for (const ServiceKind kind : collectKinds()) {
        if (!firstKind)
            os << "; ";
        firstKind = false;
        os << serviceKindName(kind) << ": ";
        bool first = true;
        for (const RepositorySnapshot::Entry &e : collectKind(kind)) {
            if (!first)
                os << ", ";
            first = false;
            os << "(c" << e.key.classId << ",i"
               << e.key.interferenceBucket << ")->"
               << e.allocation.toString();
        }
    }
    os << "}";
    return os.str();
}

void
SharedRepository::save(std::ostream &out) const
{
    out << "kind,class,bucket,instances,type\n";
    // Kinds ascending, keys ascending within each kind: the bytes
    // depend only on contents, never on shard count or hash order.
    for (const ServiceKind kind : collectKinds()) {
        for (const RepositorySnapshot::Entry &e : collectKind(kind)) {
            out << serviceKindName(kind) << ',' << e.key.classId
                << ',' << e.key.interferenceBucket << ','
                << e.allocation.instances << ','
                << instanceSpec(e.allocation.type).name << '\n';
        }
    }
}

SharedRepository
SharedRepository::load(std::istream &in, Mode /*mode*/,
                       ServiceKind legacyKind, int shards)
{
    SharedRepository repo(shards);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#' ||
            line.rfind("kind,", 0) == 0 ||
            line.rfind("class,", 0) == 0)
            continue;
        const std::vector<std::string> fields =
            splitRepositoryCsv(line);
        if (fields.size() != 4 && fields.size() != 5)
            fatal("shared repository line ", lineNo, ": expected "
                  "'kind,class,bucket,instances,type' (or the legacy "
                  "4-column form), got: ", line);
        // Legacy per-controller CSVs predate the kind column; their
        // rows are filed under the caller's legacyKind.
        const ServiceKind kind = fields.size() == 5
            ? serviceKindFromName(fields[0])
            : legacyKind;
        const auto [key, alloc] = parseRepositoryCells(
            fields, fields.size() - 4, lineNo, line);
        // Duplicates of one (kind, key) always map to the same
        // stripe, so the per-shard check is a whole-repository check.
        Shard &s = repo.shardOf(kind, key);
        MutexLock lock(s.mu);
        Table &table = s.byKind[kind];
        if (table.count(key))
            fatal("shared repository line ", lineNo,
                  ": duplicate entry for (", serviceKindName(kind),
                  ",", key.classId, ",", key.interferenceBucket,
                  "): ", line);
        table[key] = Entry{alloc, -1};
        s.generation.fetch_add(1, std::memory_order_release);
    }
    return repo;
}

} // namespace dejavu
