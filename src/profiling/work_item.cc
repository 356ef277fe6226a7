#include "profiling/work_item.hh"

#include <sstream>

#include "common/logging.hh"

namespace dejavu {

const char *
workKindName(WorkKind kind)
{
    switch (kind) {
      case WorkKind::Signature:
        return "signature";
      case WorkKind::Tuner:
        return "tuner";
    }
    fatal("unknown work kind");
}

std::string
WorkKey::toString() const
{
    std::ostringstream os;
    os << serviceKindName(serviceKind) << "/c" << classId << "/b"
       << bucket;
    return os.str();
}

std::string
WorkItem::toString() const
{
    std::ostringstream os;
    os << workKindName(kind) << "#" << id << "{" << key.toString()
       << " owner=" << owner << " seq=" << seq << " dur="
       << toSeconds(duration) << "s}";
    return os.str();
}

} // namespace dejavu
