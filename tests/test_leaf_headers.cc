/**
 * @file
 * The wire codec, the decision kernel and the shared repository stand
 * on leaf headers (services/service_kind.hh, counters/metric_sample.hh):
 * none of them may pull in the service models or the counter stack.
 * This file fails to compile when one does, and its test exercises
 * the leaf types through those three headers.
 */

#include <gtest/gtest.h>

#include "core/decision.hh"
#include "core/shared_repository.hh"
#include "serving/wire.hh"

#ifdef DEJAVU_SERVICES_SERVICE_HH
#error "a leaf-header consumer pulls in services/service.hh"
#endif
#ifdef DEJAVU_COUNTERS_MONITOR_HH
#error "a leaf-header consumer pulls in counters/monitor.hh"
#endif
#ifdef DEJAVU_COUNTERS_COUNTER_MODEL_HH
#error "a leaf-header consumer pulls in counters/counter_model.hh"
#endif

namespace dejavu {
namespace {

TEST(LeafHeaders, KindsAndSamplesTravelWithoutTheModels)
{
    for (ServiceKind kind :
         {ServiceKind::KeyValue, ServiceKind::SpecWeb, ServiceKind::Rubis,
          ServiceKind::Generic, ServiceKind::Ycsb})
        EXPECT_EQ(serviceKindFromName(serviceKindName(kind)), kind);

    MetricSample sample;
    sample.values = {1.5, -2.0, 0.25};
    serving::WireFrame frame;
    serving::encodeSampleInto(frame, 7, 9, sample.values);
    serving::SampleMsg decoded;
    ASSERT_TRUE(serving::decodeSampleInto(frame, decoded));
    EXPECT_EQ(decoded.values, sample.values);

    SharedRepository repo;
    repo.attach(ServiceKind::Ycsb).store({1, 0}, {3, InstanceType::Large});
    EXPECT_EQ(repo.snapshot(ServiceKind::Ycsb).find({1, 0}),
              (ResourceAllocation{3, InstanceType::Large}));
}

} // namespace
} // namespace dejavu
