/**
 * @file
 * The service kind: the coarse family a service model belongs to. It
 * namespaces the shared repository and is a field of the serving
 * wire; both include this leaf header, not the service models.
 */

#ifndef DEJAVU_SERVICES_SERVICE_KIND_HH
#define DEJAVU_SERVICES_SERVICE_KIND_HH

#include <string>

namespace dejavu {

/** Coarse service family; the counter simulator keys its response
 *  surfaces on this (different services stress different units). */
enum class ServiceKind { KeyValue, SpecWeb, Rubis, Generic, Ycsb };

/** Stable lowercase name of a service kind ("keyvalue" | "specweb" |
 *  "rubis" | "generic" | "ycsb") — the kind column of repository CSVs
 *  and the namespace label of shared-repository reports. */
const char *serviceKindName(ServiceKind kind);

/** Parse a name produced by serviceKindName(); fatal() otherwise. */
ServiceKind serviceKindFromName(const std::string &name);

} // namespace dejavu

#endif // DEJAVU_SERVICES_SERVICE_KIND_HH
