#include "core/shared_repository.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

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
    if (!_table)
        return std::nullopt;
    const std::vector<Entry> &entries = *_table;
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry &e, const RepositoryKey &k) {
            return e.key < k;
        });
    if (it == entries.end() || !(it->key == key))
        return std::nullopt;
    return it->allocation;
}

const std::vector<RepositorySnapshot::Entry> &
RepositorySnapshot::all() const
{
    static const std::vector<Entry> kNoEntries;
    return _table ? *_table : kNoEntries;
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

/** Which member reads or writes an entry first decides what the
 *  others see, so repository traffic stays in the ordered half of a
 *  drain: from member-local work it would depend on worker timing. */
void
checkOrdered(const char *op)
{
    DEJAVU_ASSERT(!inMemberLocalScope(), "repository handle: ", op,
                  "() from member-local work");
}

} // namespace

ServiceKind
RepositoryHandle::kind() const
{
    if (!attached())
        unattached("kind");
    MutexLock lock(_repo->_mu);
    return _repo->attachment(_id).kind;
}

void
RepositoryHandle::store(const RepositoryKey &key,
                        const ResourceAllocation &allocation)
{
    if (!attached())
        unattached("store");
    checkOrdered("store");
    _repo->handleStore(_id, key, allocation);
}

std::optional<ResourceAllocation>
RepositoryHandle::lookup(const RepositoryKey &key)
{
    if (!attached())
        unattached("lookup");
    checkOrdered("lookup");
    return _repo->handleLookup(_id, key);
}

std::optional<ResourceAllocation>
RepositoryHandle::peek(const RepositoryKey &key) const
{
    if (!attached())
        unattached("peek");
    checkOrdered("peek");
    return _repo->handlePeek(_id, key);
}

std::size_t
RepositoryHandle::entries() const
{
    if (!attached())
        unattached("entries");
    checkOrdered("entries");
    return _repo->handleEntries(_id);
}

void
RepositoryHandle::clear()
{
    if (!attached())
        unattached("clear");
    checkOrdered("clear");
    _repo->handleClear(_id);
}

RepositoryStats
RepositoryHandle::stats() const
{
    if (!attached())
        unattached("stats");
    MutexLock lock(_repo->_mu);
    return _repo->attachment(_id).stats;
}

std::uint64_t
RepositoryHandle::crossHits() const
{
    if (!attached())
        unattached("crossHits");
    MutexLock lock(_repo->_mu);
    return _repo->attachment(_id).crossHits;
}

std::uint64_t
RepositoryHandle::reusedEntries() const
{
    if (!attached())
        unattached("reusedEntries");
    MutexLock lock(_repo->_mu);
    return _repo->attachment(_id).reused.size();
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
    const RepositorySnapshot view = _repo->snapshot(kind());
    std::ostringstream os;
    os << "repository[" << serviceKindName(view.kind()) << "]{";
    bool first = true;
    for (const RepositorySnapshot::Entry &e : view.all()) {
        if (!first)
            os << ", ";
        first = false;
        os << "(c" << e.key.classId << ",i" << e.key.interferenceBucket
           << ")->" << e.allocation.toString();
    }
    os << "}";
    return os.str();
}

// ---------------------------------------------------------------------
// SharedRepository
// ---------------------------------------------------------------------

SharedRepository::SharedRepository(SharedRepository &&other) noexcept
{
    // Lock the source against concurrent readers, and the (freshly
    // constructed) destination to satisfy the analysis.
    MutexLock source(other._mu);
    MutexLock self(_mu);
    _byKind = std::move(other._byKind);
    _attachments = std::move(other._attachments);
    _version.store(other._version.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void
SharedRepository::bump()
{
    _version.fetch_add(1, std::memory_order_release);
}

RepositorySnapshot
SharedRepository::snapshot(ServiceKind kind) const
{
    MutexLock lock(_mu);
    const std::uint64_t current =
        _version.load(std::memory_order_relaxed);
    RepositorySnapshot &kept = _snapshots[kind];
    if (kept._table && kept._version == current)
        return kept;
    kept._kind = kind;
    kept._version = current;
    kept._table = std::make_shared<const std::vector<
        RepositorySnapshot::Entry>>(collectKind(kind));
    return kept;
}

RepositoryHandle
SharedRepository::attach(ServiceKind kind)
{
    MutexLock lock(_mu);
    _attachments.emplace_back();
    _attachments.back().kind = kind;
    return RepositoryHandle(
        this, static_cast<int>(_attachments.size()) - 1);
}

SharedRepository::Attachment &
SharedRepository::attachment(int id) const
{
    DEJAVU_ASSERT(id >= 0 &&
                  id < static_cast<int>(_attachments.size()),
                  "no such attachment: ", id);
    return _attachments[static_cast<std::size_t>(id)];
}

const SharedRepository::Entry *
SharedRepository::find(ServiceKind kind, const RepositoryKey &key) const
{
    const auto kt = _byKind.find(kind);
    if (kt == _byKind.end())
        return nullptr;
    const auto it = kt->second.find(key);
    return it == kt->second.end() ? nullptr : &it->second;
}

void
SharedRepository::handleStore(int id, const RepositoryKey &key,
                              const ResourceAllocation &allocation)
{
    MutexLock lock(_mu);
    Attachment &a = attachment(id);
    ++a.stats.stores;
    _byKind[a.kind][key] = Entry{allocation, id};
    bump();
}

std::optional<ResourceAllocation>
SharedRepository::handleLookup(int id, const RepositoryKey &key)
{
    MutexLock lock(_mu);
    Attachment &a = attachment(id);
    ++a.stats.lookups;
    const Entry *entry = find(a.kind, key);
    if (!entry) {
        ++a.stats.misses;
        return std::nullopt;
    }
    ++a.stats.hits;
    if (entry->writer != id) {
        ++a.crossHits;
        a.reused.insert(key);
    }
    return entry->allocation;
}

std::optional<ResourceAllocation>
SharedRepository::handlePeek(int id, const RepositoryKey &key) const
{
    MutexLock lock(_mu);
    const Entry *entry = find(attachment(id).kind, key);
    if (!entry)
        return std::nullopt;
    return entry->allocation;
}

std::size_t
SharedRepository::handleEntries(int id) const
{
    MutexLock lock(_mu);
    const auto it = _byKind.find(attachment(id).kind);
    return it == _byKind.end() ? 0 : it->second.size();
}

void
SharedRepository::handleClear(int id)
{
    MutexLock lock(_mu);
    Attachment &a = attachment(id);
    const auto kt = _byKind.find(a.kind);
    if (kt == _byKind.end())
        return;
    // Only this attachment's writes are invalidated: a peer's tuned
    // allocations are still valid for the peer (and for reuse).
    Table &table = kt->second;
    const std::size_t before = table.size();
    // lint-allow(unordered-iteration): erases by writer; order is moot
    for (auto it = table.begin(); it != table.end();) {
        if (it->second.writer == id)
            it = table.erase(it);
        else
            ++it;
    }
    if (table.size() != before)
        bump();
}

std::size_t
SharedRepository::entries() const
{
    MutexLock lock(_mu);
    std::size_t total = 0;
    for (const auto &[kind, table] : _byKind)
        total += table.size();
    return total;
}

std::vector<RepositorySnapshot::Entry>
SharedRepository::collectKind(ServiceKind kind) const
{
    std::vector<RepositorySnapshot::Entry> out;
    const auto it = _byKind.find(kind);
    if (it == _byKind.end())
        return out;
    // lint-allow(unordered-iteration): collected then sorted below
    for (const auto &[key, entry] : it->second)
        out.push_back({key, entry.allocation});
    std::sort(out.begin(), out.end(),
              [](const RepositorySnapshot::Entry &a,
                 const RepositorySnapshot::Entry &b) {
                  return a.key < b.key;
              });
    return out;
}

void
SharedRepository::save(std::ostream &out) const
{
    MutexLock lock(_mu);
    out << "kind,class,bucket,instances,type\n";
    // Kinds ascending, keys ascending within each kind: the bytes
    // depend only on contents, never on hash order.
    for (const auto &[kind, table] : _byKind) {
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
                       ServiceKind legacyKind, int /*shards*/)
{
    SharedRepository repo;
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
        MutexLock lock(repo._mu);
        Table &table = repo._byKind[kind];
        if (table.count(key))
            fatal("shared repository line ", lineNo,
                  ": duplicate entry for (", serviceKindName(kind),
                  ",", key.classId, ",", key.interferenceBucket,
                  "): ", line);
        table[key] = Entry{alloc, -1};
        repo.bump();
    }
    return repo;
}

} // namespace dejavu
