/**
 * @file
 * The shared cross-service signature repository: one DejaVu cache
 * serving many controllers — and, since the serving-path refactor,
 * the `dejavud` daemon.
 *
 * The paper's repository "is most useful when its cached allocations
 * can be repeatedly reused" (§3.4/§3.6), and a Figure-2 installation
 * hosts many services — so allocations tuned for one service can be
 * reused by every *compatible* fleet member instead of re-profiling
 * the same (class, interference) point once per service (the
 * cross-VM transfer lever of ADARES, arXiv:1812.01837). Compatibility
 * is per service kind: entries are keyed by (kind, workload class,
 * interference bucket), and a controller attaches with its kind as
 * namespace, so a RUBiS hit can never serve a KeyValue lookup.
 *
 * Controllers do not own the cache; they hold a RepositoryHandle —
 * an attachment carrying the kind namespace plus per-attachment
 * hit/miss/store statistics (the aggregate across attachments is the
 * fleet-wide number benches report). Lookups see every attachment's
 * writes within the kind namespace — cross-service reuse, live.
 *
 * Thread safety: internally synchronized, and since the serving PR
 * *sharded*. The kind-level tables are striped over N shards (one
 * annotated Mutex each, entries assigned by a deterministic hash of
 * (kind, key)), so stores on one shard never block lookups on
 * another; per-attachment statistics are lock-free atomics, so the
 * handle hot path takes exactly one shard lock. On top of the locked
 * path sits an RCU-style read surface: version() is a monotone
 * store/clear counter and snapshot() materializes an immutable
 * sorted view of one kind's table, which readers (the dejavud
 * sessions) consult lock-free and refresh only when version() moves —
 * lookups never block behind stores. The clang CI job verifies the
 * lock discipline statically (`-Wthread-safety -Werror`) and the
 * TSan CI leg exercises it dynamically. Determinism note: locking
 * makes concurrent access *safe*, not *ordered* — callers that
 * require a deterministic store/lookup interleaving (learnAll's
 * shared phase) must still serialize those calls themselves, and
 * save() output is byte-identical for any shard count (shards are
 * merged and sorted before serialization).
 */

#ifndef DEJAVU_CORE_SHARED_REPOSITORY_HH
#define DEJAVU_CORE_SHARED_REPOSITORY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.hh"
#include "core/repository.hh"
#include "services/service.hh"

namespace dejavu {

class SharedRepository;

/** How a fleet composes its members' repositories. */
enum class RepositorySharing
{
    Private,  ///< Each controller owns its repository (the baseline).
    Shared,   ///< One SharedRepository, kind-namespaced live reuse.
};

/** Stable name ("private" | "shared") for scenario names and sweep
 *  digests. */
const char *repositorySharingName(RepositorySharing sharing);

/** Parse a name produced by repositorySharingName(); fatal()
 *  otherwise. */
RepositorySharing repositorySharingFromName(const std::string &name);

/**
 * An immutable, sorted view of one kind's table at a repository
 * version — the RCU-style epoch read path the serving layer runs on.
 *
 * A snapshot is a plain value: find() is a lock-free binary search
 * over entries frozen at snapshot() time, so a session answering
 * allocation lookups never touches a mutex and never blocks behind a
 * store. Readers detect staleness by comparing version() against
 * SharedRepository::version() and re-snapshot when it moved; a stale
 * snapshot is never *wrong*, only old (it serves the allocations
 * that were current when it was taken).
 */
class RepositorySnapshot
{
  public:
    /** One (key, allocation) pair; entries are sorted by key. */
    struct Entry
    {
        RepositoryKey key;
        ResourceAllocation allocation;
    };

    RepositorySnapshot() = default;

    /** The kind namespace this snapshot covers. */
    ServiceKind kind() const { return _kind; }

    /** SharedRepository::version() observed when the snapshot was
     *  taken; compare against the live value to detect staleness. */
    std::uint64_t version() const { return _version; }

    std::size_t entries() const { return _entries.size(); }
    bool empty() const { return _entries.empty(); }

    /** Lock-free lookup: binary search over the frozen entries. */
    std::optional<ResourceAllocation> find(const RepositoryKey &key)
        const;

    /** The frozen entries, sorted by key (for iteration/reports). */
    const std::vector<Entry> &all() const { return _entries; }

  private:
    friend class SharedRepository;

    ServiceKind _kind = ServiceKind::Generic;
    std::uint64_t _version = 0;
    std::vector<Entry> _entries;
};

/**
 * One controller's attachment to a SharedRepository. A lightweight
 * value (pointer + attachment id): copies refer to the same
 * attachment and its statistics. A default-constructed handle is
 * unattached; every operation on it is fatal.
 */
class RepositoryHandle
{
  public:
    RepositoryHandle() = default;

    bool attached() const { return _repo != nullptr; }

    /** Attachment id, unique within the repository (dense from 0). */
    int id() const { return _id; }

    /** The kind namespace this attachment reads and writes. */
    ServiceKind kind() const;

    /** Diagnostic owner label given at attach time. */
    std::string owner() const;

    /** The underlying repository (null when unattached). */
    SharedRepository *shared() { return _repo; }
    const SharedRepository *shared() const { return _repo; }

    /** Store (or overwrite) the preferred allocation for a key;
     *  the entry is tagged with this attachment as its writer. */
    void store(const RepositoryKey &key,
               const ResourceAllocation &allocation);

    /** Cache lookup within the kind namespace; counts hit/miss on
     *  this attachment's statistics. */
    std::optional<ResourceAllocation> lookup(const RepositoryKey &key);

    /** Non-counting inspection of this attachment's view. */
    std::optional<ResourceAllocation> peek(const RepositoryKey &key) const;

    bool contains(const RepositoryKey &key) const;

    /** Entries visible to this attachment's lookups. */
    std::size_t entries() const;

    /** Visible keys, sorted (stable for reports and tests). */
    std::vector<RepositoryKey> keys() const;

    /** Drop the entries this attachment wrote (a re-clustering
     *  invalidates *its* allocations, not its peers'). */
    void clear();

    /** This attachment's statistics (a snapshot: returned by value
     *  so readers never alias concurrently mutated counters). */
    RepositoryStats stats() const;

    /** Hits served from entries written by *another* attachment —
     *  reads the shared table answered on a peer's behalf. Repeated
     *  lookups of the same key all count; for avoided work see
     *  reusedEntries(). */
    std::uint64_t crossHits() const;

    /** Distinct keys this attachment read from a peer's write —
     *  allocations it never had to produce itself, i.e. tuner runs
     *  avoided (a repeated read of the same key counts once). */
    std::uint64_t reusedEntries() const;

    double hitRate() const;

    std::string toString() const;

  private:
    friend class SharedRepository;

    RepositoryHandle(SharedRepository *repo, int id)
        : _repo(repo), _id(id) {}

    SharedRepository *_repo = nullptr;
    int _id = -1;
};

/**
 * The shared allocation cache. See the file comment for semantics.
 */
class SharedRepository
{
  public:
    /** Selects nothing: kind-namespace sharing is the only mode. Kept
     *  as load()'s parameter for callers written against it. */
    enum class Mode
    {
        Shared,
    };

    /**
     * @param shards Lock stripes for the kind-level tables. 1 (the
     *   default) reproduces the pre-serving single-lock behavior and
     *   is right for sim-side use, where accesses are uncontended;
     *   the daemon uses more so concurrent sessions' stores do not
     *   serialize. Entries are placed by a deterministic hash, so
     *   contents, save() bytes and snapshot() views are identical
     *   for every shard count.
     */
    explicit SharedRepository(int shards = 1);

    /** Move is for factory returns (load()) only: it locks @p other,
     *  so it is safe against concurrent readers of the source, but
     *  handles into @p other are NOT retargeted — move before
     *  attaching. */
    SharedRepository(SharedRepository &&other) noexcept;
    SharedRepository(const SharedRepository &) = delete;
    SharedRepository &operator=(const SharedRepository &) = delete;
    SharedRepository &operator=(SharedRepository &&) = delete;

    /** Lock stripes backing the kind-level tables. */
    int shards() const { return static_cast<int>(_shards.size()); }

    /**
     * Monotone modification counter: advances on every store and
     * clear (sum of per-shard generation counters, read lock-free).
     * Snapshot readers poll this to decide when to refresh; equal
     * versions guarantee no store/clear happened in between.
     */
    std::uint64_t version() const;

    /**
     * Freeze one kind's table into an immutable sorted view (see
     * RepositorySnapshot). Takes each shard lock once, briefly;
     * the returned value is then read without any locking. The
     * recorded version is captured *before* collection, so a write
     * that races the collection at worst makes the snapshot look
     * stale immediately — never silently current.
     */
    RepositorySnapshot snapshot(ServiceKind kind) const;

    /**
     * Attach a controller with @p kind as its namespace. @p owner is
     * a diagnostic label for per-attachment reports. Attachment ids
     * are dense and never reused.
     */
    RepositoryHandle attach(ServiceKind kind, std::string owner = "");

    /** Detach @p handle (its entries stay; its stats keep counting
     *  toward the aggregate). The handle becomes unattached. */
    void detach(RepositoryHandle &handle);

    /** Live (attached, not detached) attachments. */
    int attachments() const;

    /** All attachments ever made, detached included. */
    int totalAttachments() const;

    /** Sum of all attachments' statistics — the fleet-wide numbers. */
    RepositoryStats aggregateStats() const;

    /** Fleet-wide cross-attachment hits (peer-served reads). */
    std::uint64_t aggregateCrossHits() const;

    /** Fleet-wide distinct reused entries (tuner runs avoided). */
    std::uint64_t aggregateReusedEntries() const;

    /** Aggregate hit rate over every attachment's lookups. */
    double hitRate() const;

    /** Kind-level entry count (the union sharing exposes). */
    std::size_t entries() const;
    std::size_t entries(ServiceKind kind) const;

    /** Kinds with at least one kind-level entry, ascending. */
    std::vector<ServiceKind> kinds() const;

    /** Kind-level keys, sorted. */
    std::vector<RepositoryKey> keys(ServiceKind kind) const;

    /** Non-counting kind-level inspection. */
    std::optional<ResourceAllocation> peek(ServiceKind kind,
                                           const RepositoryKey &key) const;

    std::string toString() const;

    /** @name Persistence (CSV: kind,class,bucket,instances,type) @{ */
    /** Serialize the kind-level tables; stats are not persisted.
     *  Output is sorted (kind, then key) and byte-identical for any
     *  shard count — the contract daemon restart relies on. */
    void save(std::ostream &out) const;

    /**
     * Load entries from a stream produced by save(). Also accepts the
     * legacy per-controller 4-column format (class,bucket,instances,
     * type), filing those rows under @p legacyKind. fatal() on
     * malformed input and on duplicate (kind,class,bucket) rows.
     * Loaded entries have no writer: every attachment's hit on them
     * counts as a cross hit. @p mode selects nothing (see Mode).
     */
    static SharedRepository load(std::istream &in,
                                 Mode mode = Mode::Shared,
                                 ServiceKind legacyKind =
                                     ServiceKind::Generic,
                                 int shards = 1);
    /** @} */

  private:
    friend class RepositoryHandle;

    struct Entry
    {
        ResourceAllocation allocation;
        int writer = -1;  ///< Attachment id; -1 for loaded entries.
    };

    using Table =
        std::unordered_map<RepositoryKey, Entry, RepositoryKeyHash>;

    /**
     * One lock stripe of the kind-level tables. An entry lives on
     * exactly one shard (deterministic hash of kind + key), so a
     * store only contends with traffic for the same stripe. The
     * generation counter is the shard's contribution to version().
     */
    struct Shard
    {
        mutable Mutex mu;
        /** Ordered by kind so per-shard walks are deterministic. */
        std::map<ServiceKind, Table> byKind GUARDED_BY(mu);
        std::atomic<std::uint64_t> generation{0};
    };

    /**
     * Per-attachment state. The counters are atomics (the handle hot
     * path updates them without any lock); the colder reused-key set
     * takes the attachment's own mutex.
     * Attachments are never destroyed (detach only marks them dead),
     * so references handed out by attachment() stay valid for the
     * repository's lifetime.
     */
    struct Attachment
    {
        ServiceKind kind = ServiceKind::Generic;  // set once at attach
        std::string owner;                        // set once at attach
        std::atomic<bool> live{true};
        std::atomic<std::uint64_t> lookups{0};
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> stores{0};
        std::atomic<std::uint64_t> crossHits{0};
        mutable Mutex mu;
        /** Keys ever served to this attachment from a peer's write
         *  (size() == reusedEntries()). */
        std::unordered_set<RepositoryKey, RepositoryKeyHash> reused
            GUARDED_BY(mu);
    };

    /** @name Handle back-ends (id-checked) @{ */
    void handleStore(int id, const RepositoryKey &key,
                     const ResourceAllocation &allocation);
    std::optional<ResourceAllocation> handleLookup(
        int id, const RepositoryKey &key);
    std::optional<ResourceAllocation> handlePeek(
        int id, const RepositoryKey &key) const;
    void handleClear(int id);
    std::size_t handleEntries(int id) const;
    std::vector<RepositoryKey> handleKeys(int id) const;
    RepositoryStats attachmentStats(int id) const;
    std::uint64_t attachmentReusedEntries(int id) const;
    /** @} */

    /** Registry access: bounds-checks @p id and returns the stable
     *  per-attachment record (valid past the internal lock because
     *  deque elements never relocate and are never destroyed). */
    Attachment &attachment(int id) const;

    /** The stripe owning (kind, key) — a deterministic, process-
     *  independent hash so layouts replay identically. */
    Shard &shardOf(ServiceKind kind, const RepositoryKey &key) const;

    /** All of @p kind's entries merged across shards, sorted by key
     *  (the shared implementation behind keys/save/snapshot). */
    std::vector<RepositorySnapshot::Entry>
    collectKind(ServiceKind kind) const;

    /** Kinds with entries, ascending, merged across shards. */
    std::vector<ServiceKind> collectKinds() const;

    /** The lock stripes; sized at construction, never resized (so
     *  shardOf needs no lock). unique_ptr keeps Shard's mutex and
     *  atomic pinned while the vector itself stays movable. */
    std::vector<std::unique_ptr<Shard>> _shards;
    /** Guards the attachment registry (deque spine + live count),
     *  NOT the per-attachment records it points at. */
    mutable Mutex _amu;
    /** A deque so attach() never relocates live attachments. */
    mutable std::deque<Attachment> _attachments GUARDED_BY(_amu);
    int _live GUARDED_BY(_amu) = 0;
};

} // namespace dejavu

#endif // DEJAVU_CORE_SHARED_REPOSITORY_HH
