#include "services/service_kind.hh"

#include "common/logging.hh"

namespace dejavu {

const char *
serviceKindName(ServiceKind kind)
{
    switch (kind) {
      case ServiceKind::KeyValue:
        return "keyvalue";
      case ServiceKind::SpecWeb:
        return "specweb";
      case ServiceKind::Rubis:
        return "rubis";
      case ServiceKind::Generic:
        return "generic";
      case ServiceKind::Ycsb:
        return "ycsb";
    }
    fatal("unknown service kind: ", static_cast<int>(kind));
}

ServiceKind
serviceKindFromName(const std::string &name)
{
    if (name == "keyvalue")
        return ServiceKind::KeyValue;
    if (name == "specweb")
        return ServiceKind::SpecWeb;
    if (name == "rubis")
        return ServiceKind::Rubis;
    if (name == "generic")
        return ServiceKind::Generic;
    if (name == "ycsb")
        return ServiceKind::Ycsb;
    fatal("unknown service kind name: ", name,
          " (use keyvalue|specweb|rubis|generic|ycsb)");
}

} // namespace dejavu
