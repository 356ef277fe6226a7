/**
 * @file
 * Umbrella header: the DejaVu public API.
 *
 * Typical usage (see examples/quickstart.cpp):
 *
 *   Simulation sim(seed);
 *   Cluster cluster(sim.queue(), clusterConfig);
 *   KeyValueService service(sim.queue(), cluster, sim.forkRng());
 *   CounterModel counters(service.kind(), sim.forkRng());
 *   Monitor monitor(service, counters);
 *   ProfilerHost profiler(service, monitor, sim.forkRng());
 *   DejaVuController dejavu(service, profiler, config, sim.forkRng());
 *   dejavu.learn(dayOneWorkloads);
 *   ... per workload change: dejavu.onWorkloadChange(w) ...
 */

#ifndef DEJAVU_CORE_DEJAVU_HH
#define DEJAVU_CORE_DEJAVU_HH

#include "core/classifier_engine.hh"
#include "core/clustering_engine.hh"
#include "core/controller.hh"
#include "core/interference_estimator.hh"
#include "core/repository.hh"
#include "core/shared_repository.hh"
#include "core/signature.hh"
#include "core/tuner.hh"
#include "counters/monitor.hh"
#include "counters/profiler.hh"
#include "services/keyvalue_service.hh"
#include "services/rubis_service.hh"
#include "services/specweb_service.hh"
#include "services/ycsb_service.hh"
#include "sim/cluster.hh"
#include "sim/daemon.hh"
#include "sim/interference.hh"
#include "sim/simulation.hh"
#include "workload/trace_library.hh"

#endif // DEJAVU_CORE_DEJAVU_HH
