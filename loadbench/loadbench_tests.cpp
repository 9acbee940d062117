// Unit tests of the benchmark's own machinery: the refusing percentile and
// the transparency of the Backend decorator. (Metric names and units are
// checked against BENCHMARK.json by run.py on every run.)
#include <gtest/gtest.h>

#include <vector>

#include "bench_common.h"
#include "histogram.h"
#include "net/client.h"
#include "net/server.h"
#include "service/service.h"
#include "traced_backend.h"
#include "util/rng.h"

namespace {

using namespace fpss;
using loadbench::Histogram;
using loadbench::TracedBackend;

TEST(Histogram, RefusesPercentileWithFewerThanTenSamplesBeyond) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 99; ++v) h.add(v * 1000);
  // 99 samples: rank ceil(0.9 * 99) = 90 leaves 9 beyond — refused.
  EXPECT_FALSE(h.percentile(0.90).has_value());
  h.add(100'000);
  // 100 samples: rank 90 leaves exactly 10 beyond — reported.
  ASSERT_TRUE(h.percentile(0.90).has_value());
  EXPECT_NEAR(*h.percentile(0.90), 90'000.0, 90'000.0 / 256);
  EXPECT_FALSE(h.percentile(0.99).has_value());  // needs 1000 samples

  Histogram small;
  for (int v = 0; v < 19; ++v) small.add(5);
  EXPECT_FALSE(small.percentile(0.50).has_value());  // 19: 9 beyond
  small.add(5);
  EXPECT_TRUE(small.percentile(0.50).has_value());   // 20: 10 beyond
  EXPECT_FALSE(Histogram().percentile(0.50).has_value());
}

TEST(Histogram, MinSamplesFollowsTheRankRule) {
  EXPECT_EQ(Histogram::min_samples(0.50), 20u);
  EXPECT_EQ(Histogram::min_samples(0.90), 100u);
  EXPECT_EQ(Histogram::min_samples(0.99), 1000u);
  EXPECT_EQ(Histogram::rank_of(0.9, 100), 90u);
  EXPECT_EQ(Histogram::rank_of(0.9, 99), 90u);
}

TEST(GroupedPercentile, SplitsTwoHundredSamplesIntoTwoP90Groups) {
  // Group one holds 1..100 us, group two 1001..1100 us. Two groups give the
  // median of their p90s, (90 + 1090) / 2 = 590 us; one whole-run group
  // would give the p90 of all 200, 1080 us.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 1; v <= 100; ++v) samples.push_back(v * 1000);
  for (std::uint64_t v = 1001; v <= 1100; ++v) samples.push_back(v * 1000);
  const auto got = loadbench::grouped_percentile(samples, 0.90, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_NEAR(*got, 590'000.0, 1100'000.0 / 256);
  // 199 samples are one group of 199, whose p90 lies in the second half.
  samples.pop_back();
  EXPECT_GT(*loadbench::grouped_percentile(samples, 0.90, 10), 1000'000.0);
  // 99 samples are too few for any p90.
  samples.resize(99);
  EXPECT_FALSE(loadbench::grouped_percentile(samples, 0.90, 10).has_value());
}

TEST(QuietMedian, LeavesOutTheNoisiestParts) {
  // Parts 1, 3 and 5 ran under heavy steal and read high.
  const std::vector<std::optional<double>> values = {10, 50, 11, 60, 12, 70};
  const std::vector<double> steal = {0.01, 0.30, 0.02, 0.25, 0.00, 0.40};
  EXPECT_EQ(*loadbench::quiet_median(values, steal, 3), 11.0);
  // A change that moves every part moves the figure in full.
  std::vector<std::optional<double>> slower;
  for (const auto& v : values) slower.push_back(*v * 1.2);
  EXPECT_DOUBLE_EQ(*loadbench::quiet_median(slower, steal, 3), 11.0 * 1.2);
}

TEST(QuietMedian, SkipsPartsWithoutAValue) {
  const std::vector<std::optional<double>> values = {std::nullopt, 4, 6};
  const std::vector<double> steal = {0.0, 0.0, 0.0};
  EXPECT_EQ(*loadbench::quiet_median(values, steal, 3), 5.0);
  EXPECT_FALSE(loadbench::quiet_median(values, steal, 1).has_value());
}

TEST(Histogram, ValuesStayWithinBucketResolution) {
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t v = 1 + rng.below(std::uint64_t{1} << 40);
    Histogram h;
    for (int s = 0; s < 20; ++s) h.add(v);
    const double got = *h.percentile(0.5);
    EXPECT_NEAR(got, static_cast<double>(v),
                static_cast<double>(v) / (1 << Histogram::kSubBits) + 1.0);
  }
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  for (int s = 0; s < 60; ++s) a.add(10);
  for (int s = 0; s < 60; ++s) b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 120u);
  EXPECT_NEAR(*a.percentile(0.75), 1000.0, 4.0);
}

std::vector<service::Request> mixed_batch(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<service::Request> batch;
  for (int q = 0; q < 256; ++q) {
    service::Request r;
    r.kind = static_cast<service::RequestKind>(1 + rng.below(6));
    r.k = static_cast<NodeId>(rng.below(n));
    r.i = static_cast<NodeId>(rng.below(n));
    r.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(r);
  }
  return batch;
}

void expect_same(const std::vector<service::Reply>& a,
                 const std::vector<service::Reply>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q)
    EXPECT_TRUE(service::same_answer(a[q], b[q])) << "reply " << q;
}

TEST(TracedBackend, TracedAndUntracedRepliesAreTheSameAnswer) {
  service::RouteService svc(bench::internet_like(24, 5));
  net::ServiceBackend plain(svc);
  TracedBackend traced(plain);
  const auto batch = mixed_batch(svc.node_count(), 9);
  const auto reference = plain.query(batch);

  traced.set_tracing(false);
  expect_same(traced.query(batch), reference);
  EXPECT_EQ(traced.query_ns().count(), 0u);

  traced.set_tracing(true);
  expect_same(traced.query(batch), reference);
  EXPECT_EQ(traced.query_ns().count(), 1u);
  EXPECT_GT(traced.take_span(loadbench::fingerprint(batch)), 0u);
  EXPECT_EQ(traced.version(), plain.version());
  EXPECT_EQ(traced.publish_count(), plain.publish_count());
}

TEST(TracedBackend, IsTransparentBehindARouteServer) {
  service::RouteService svc(bench::internet_like(24, 6));
  net::ServiceBackend plain(svc);
  TracedBackend traced(plain);
  net::RouteServer server(traced);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  const auto batch = mixed_batch(svc.node_count(), 10);

  for (bool on : {false, true}) {
    traced.set_tracing(on);
    const net::QueryResult result = client.query(batch);
    ASSERT_TRUE(result.ok()) << result.error.message;
    expect_same(result.replies, svc.query(batch));
  }
  // Writes pass through too: the traced submit publishes and times.
  const service::RouteService::Delta delta =
      service::RouteService::Delta::cost_change(3, Cost{7});
  const net::SubmitResult ack = client.submit_deltas(
      std::span<const service::RouteService::Delta>(&delta, 1));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.accepted, 1u);
  EXPECT_EQ(ack.publish_count, svc.publish_count());
  EXPECT_GT(traced.last_submit_ns(), 0u);
}

TEST(Fingerprint, DistinguishesBatchesAndIsNeverZero) {
  const auto a = mixed_batch(64, 1);
  auto b = a;
  b.back().j ^= 1;
  EXPECT_NE(loadbench::fingerprint(a), loadbench::fingerprint(b));
  EXPECT_EQ(loadbench::fingerprint(a), loadbench::fingerprint(a));
  EXPECT_NE(loadbench::fingerprint({}), 0u);
}

}  // namespace
