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
 * hit/miss/store statistics (FleetExperiment sums them into the
 * fleet-wide numbers benches report). Lookups see every attachment's
 * writes within the kind namespace — cross-service reuse, live.
 *
 * Thread safety: internally synchronized by one annotated Mutex,
 * which guards the kind tables, every attachment's statistics and
 * the kept snapshots. On top of it sits an RCU-style read surface:
 * version() is a monotone counter that stores and clears advance
 * under the lock and readers load without it, and snapshot() hands
 * out an immutable sorted table of one kind's entries, taken with
 * its version under the same lock and shared by every reader of
 * that kind and version. Readers (the dejavud sessions) consult it
 * lock-free and refresh only when version() moves — lookups never
 * block behind stores. The clang CI job verifies the lock
 * discipline statically (`-Wthread-safety -Werror`) and the TSan CI
 * leg exercises it dynamically. Determinism note: locking makes
 * concurrent access *safe*, not *ordered* — callers that require a
 * deterministic store/lookup interleaving (learnAll's shared phase)
 * must still serialize those calls themselves. save() output is
 * sorted, so its bytes depend on the contents alone.
 */

#ifndef DEJAVU_CORE_SHARED_REPOSITORY_HH
#define DEJAVU_CORE_SHARED_REPOSITORY_HH

#include <atomic>
#include <cstdint>
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
#include "services/service_kind.hh"

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
 * A snapshot is a cheap value: a version plus a shared pointer to a
 * table that SharedRepository::snapshot() built once for that kind
 * and version and hands to every caller, so many sessions reading
 * one kind hold one table between them. find() is a lock-free binary
 * search over the frozen table, so a session answering allocation
 * lookups never touches a mutex and never blocks behind a store.
 * Readers detect staleness by comparing version() against
 * SharedRepository::version() and re-snapshot when it moved; a stale
 * snapshot is never *wrong*, only old (it serves the allocations
 * that were current when it was taken). A default-constructed
 * snapshot has no table and finds nothing.
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

    std::size_t entries() const { return _table ? _table->size() : 0; }
    bool empty() const { return entries() == 0; }

    /** Lock-free lookup: binary search over the frozen entries. */
    std::optional<ResourceAllocation> find(const RepositoryKey &key)
        const;

    /** The frozen entries, sorted by key (for iteration/reports);
     *  the same object for every snapshot of one kind and version. */
    const std::vector<Entry> &all() const;

  private:
    friend class SharedRepository;

    ServiceKind _kind = ServiceKind::Generic;
    std::uint64_t _version = 0;
    /** Published by SharedRepository::snapshot() and never modified
     *  after; null only in a default-constructed snapshot. */
    std::shared_ptr<const std::vector<Entry>> _table;
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

    /** Entries visible to this attachment's lookups. */
    std::size_t entries() const;

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

    /** This kind's entries, sorted by key, as
     *  "repository[kind]{(cC,iB)->allocation, ...}". */
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

    SharedRepository() = default;

    /** Move is for factory returns (load()) only: it locks @p other,
     *  so it is safe against concurrent readers of the source, but
     *  handles into @p other are NOT retargeted — move before
     *  attaching. The kept snapshots are not moved: the destination
     *  starts with none and collects on its first snapshot(). */
    SharedRepository(SharedRepository &&other) noexcept;
    SharedRepository(const SharedRepository &) = delete;
    SharedRepository &operator=(const SharedRepository &) = delete;
    SharedRepository &operator=(SharedRepository &&) = delete;

    /**
     * Monotone modification counter: advances on every store and on
     * every clear that drops an entry. Read without the lock;
     * snapshot readers poll it to decide when to refresh, and equal
     * versions guarantee no store/clear happened in between.
     */
    std::uint64_t version() const
    {
        return _version.load(std::memory_order_acquire);
    }

    /**
     * The immutable sorted view of one kind's table (see
     * RepositorySnapshot). The repository keeps the latest snapshot
     * per kind and returns it while it is current; only when
     * version() has moved past it does a call collect the kind,
     * publish the new table and return it. Every caller of one kind
     * and version therefore shares one table. Invariants:
     *  - A snapshot's version and entries are taken under one hold
     *    of the lock, so it holds exactly the table at its version.
     *  - A published table is never modified; a newer version gets a
     *    new table.
     *  - A reader's old table stays valid for as long as the reader
     *    holds its snapshot, however many versions have passed.
     * Readers call this only when version() has moved; the lookups
     * themselves (RepositorySnapshot::find) take no lock.
     */
    RepositorySnapshot snapshot(ServiceKind kind) const;

    /**
     * Attach a controller with @p kind as its namespace. Attachment
     * ids are dense and never reused; an attachment lasts as long as
     * the repository.
     */
    RepositoryHandle attach(ServiceKind kind);

    /** Entries across every kind. */
    std::size_t entries() const;

    /** @name Persistence (CSV: kind,class,bucket,instances,type) @{ */
    /** Serialize the kind-level tables; stats are not persisted.
     *  Output is sorted (kind, then key), so equal contents give
     *  equal bytes — the contract daemon restart relies on. */
    void save(std::ostream &out) const;

    /**
     * Load entries from a stream produced by save(). Also accepts the
     * legacy per-controller 4-column format (class,bucket,instances,
     * type), filing those rows under @p legacyKind. fatal() on
     * malformed input and on duplicate (kind,class,bucket) rows.
     * Loaded entries have no writer: every attachment's hit on them
     * counts as a cross hit. @p mode and @p shards select nothing:
     * there is one mode (see Mode) and one lock. Both are kept for
     * callers written against them.
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

    /** Per-attachment state. Attachments are never destroyed, so ids
     *  stay valid. */
    struct Attachment
    {
        ServiceKind kind = ServiceKind::Generic;
        RepositoryStats stats;
        std::uint64_t crossHits = 0;
        /** Keys ever served to this attachment from a peer's write
         *  (size() == reusedEntries()). */
        std::unordered_set<RepositoryKey, RepositoryKeyHash> reused;
    };

    /** @name Handle back-ends (id-checked) @{ */
    void handleStore(int id, const RepositoryKey &key,
                     const ResourceAllocation &allocation);
    std::optional<ResourceAllocation> handleLookup(
        int id, const RepositoryKey &key);
    std::optional<ResourceAllocation> handlePeek(
        int id, const RepositoryKey &key) const;
    std::size_t handleEntries(int id) const;
    void handleClear(int id);
    /** @} */

    /** The record of attachment @p id (bounds-checked). */
    Attachment &attachment(int id) const REQUIRES(_mu);

    /** The entry under (kind, key), or null. */
    const Entry *find(ServiceKind kind, const RepositoryKey &key) const
        REQUIRES(_mu);

    /** All of @p kind's entries, sorted by key (the shared
     *  implementation behind save and snapshot). */
    std::vector<RepositorySnapshot::Entry>
    collectKind(ServiceKind kind) const REQUIRES(_mu);

    /** Advance version() after a store or clear changed a table. */
    void bump() REQUIRES(_mu);

    mutable Mutex _mu;
    /** Ordered by kind so kind walks are deterministic. */
    std::map<ServiceKind, Table> _byKind GUARDED_BY(_mu);
    /** Indexed by attachment id. */
    mutable std::vector<Attachment> _attachments GUARDED_BY(_mu);
    /** The latest snapshot handed out per kind. */
    mutable std::map<ServiceKind, RepositorySnapshot> _snapshots
        GUARDED_BY(_mu);
    /** Advanced by bump() under _mu; read lock-free by version(). */
    std::atomic<std::uint64_t> _version{0};
};

} // namespace dejavu

#endif // DEJAVU_CORE_SHARED_REPOSITORY_HH
