/**
 * @file
 * Unit tests for the signature schema (core/signature.hh).
 */

#include <gtest/gtest.h>

#include "core/signature.hh"

namespace dejavu {
namespace {

TEST(SignatureSchema, ExtractsSelectedMetrics)
{
    const std::vector<std::string> names = {"a", "b", "c", "d"};
    SignatureSchema schema({1, 3}, names);
    EXPECT_EQ(schema.size(), 2);
    EXPECT_EQ(schema.names(), (std::vector<std::string>{"b", "d"}));
    EXPECT_EQ(schema.extract({10.0, 20.0, 30.0, 40.0}),
              (std::vector<double>{20.0, 40.0}));
}

TEST(SignatureSchema, ToStringMatchesPaperForm)
{
    SignatureSchema schema({0, 2}, {"m1", "m2", "m3"});
    EXPECT_EQ(schema.toString(), "WS = {m1, m3}");  // §3.3's N-tuple
}

TEST(SignatureSchema, ExtractFromSample)
{
    SignatureSchema schema({0}, {"x", "y"});
    MetricSample s;
    s.values = {5.0, 6.0};
    EXPECT_EQ(schema.extract(s), (std::vector<double>{5.0}));
}

TEST(SignatureSchemaDeath, EmptySchema)
{
    EXPECT_DEATH(SignatureSchema({}, {"a"}), "empty");
}

TEST(SignatureSchemaDeath, IndexOutOfRange)
{
    EXPECT_DEATH(SignatureSchema({5}, {"a", "b"}), "out of range");
}

TEST(SignatureSchemaDeath, NarrowVector)
{
    SignatureSchema schema({1}, {"a", "b"});
    EXPECT_DEATH(schema.extract(std::vector<double>{1.0}),
                 "too narrow");
}

} // namespace
} // namespace dejavu
