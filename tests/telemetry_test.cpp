#include "support/telemetry.h"

#include <gtest/gtest.h>

#include "support/json.h"

namespace adlsym::telemetry {
namespace {

TEST(MetricsRegistry, CreateOnFirstUseAndStableRefs) {
  MetricsRegistry reg;
  Counter& c = reg.counter("engine.steps");
  c.add();
  c.add(4);
  // Same name resolves to the same metric.
  EXPECT_EQ(reg.counter("engine.steps").value, 5u);
  // References stay valid while other metrics are created (map storage).
  Counter* p = &c;
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(p, &reg.counter("engine.steps"));
  EXPECT_EQ(reg.counters().size(), 101u);

  Gauge& g = reg.gauge("explore.frontier_peak");
  g.setMax(3);
  g.setMax(7);
  g.setMax(5);
  EXPECT_EQ(g.value, 7);
  g.set(2);
  EXPECT_EQ(g.value, 2);
}

TEST(Histogram, BucketBoundaries) {
  Histogram h;
  h.record(0);  // bucket 0
  h.record(1);  // bucket 1: [1,1]
  h.record(2);  // bucket 2: [2,3]
  h.record(3);
  h.record(4);  // bucket 3: [4,7]
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);

  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::bucketUpperBound(Histogram::kBuckets - 1), UINT64_MAX);

  // Values beyond the last finite bound land in the overflow bucket.
  h.record(UINT64_MAX / 2);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
}

TEST(Histogram, OverflowBucketPinning) {
  // Pin the overflow behavior at the top of the range: bucket 22 is the
  // last whose upper bound is finite-and-reported (2^22-1 us), bucket 23
  // covers [2^22, 2^23-1] AND absorbs everything larger (values past
  // ~8.4 s of microseconds keep counting, with no 25th bucket).
  EXPECT_EQ(Histogram::kBuckets, 24u);
  EXPECT_EQ(Histogram::bucketUpperBound(22), 4194303u);
  EXPECT_EQ(Histogram::bucketUpperBound(23), UINT64_MAX);

  Histogram h;
  h.record(4194303);          // bit_width 22: last value below bucket 23
  h.record(4194304);          // bit_width 23: first natural bucket-23 value
  h.record(8388607);          // bit_width 23: last finite bound (~8.4 s)
  h.record(8388608);          // bit_width 24: clamped into bucket 23
  h.record(uint64_t{1} << 40);
  h.record(UINT64_MAX);       // bit_width 64: clamped into bucket 23
  EXPECT_EQ(h.buckets()[22], 1u);
  EXPECT_EQ(h.buckets()[23], 5u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(ManualClockTest, StepsPerReadAndAdvances) {
  ManualClock clk(10);
  EXPECT_EQ(clk.nowMicros(), 0u);
  EXPECT_EQ(clk.nowMicros(), 10u);
  clk.advance(100);
  EXPECT_EQ(clk.nowMicros(), 120u);
}

TEST(ScopedTimerTest, RecordsElapsedWithManualClock) {
  ManualClock clk;
  Telemetry tel(clk);
  Histogram& h = tel.metrics().histogram("solver.query_us");
  {
    ScopedTimer t(&tel, &h);
    clk.advance(250);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 250u);

  // stop() is idempotent and returns the elapsed time.
  ScopedTimer t(&tel, &h);
  clk.advance(5);
  EXPECT_EQ(t.stop(), 5u);
  EXPECT_EQ(t.stop(), 0u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(ScopedTimerTest, NullSafe) {
  ScopedTimer a(nullptr, nullptr);
  EXPECT_EQ(a.stop(), 0u);
  ManualClock clk(1000);
  Telemetry tel(clk);
  // Null histogram: the clock must never be read.
  { ScopedTimer b(&tel, nullptr); }
  EXPECT_EQ(clk.nowMicros(), 0u);
}

TEST(TelemetryTest, RegistryJsonShape) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.gauge("g").set(-2);
  reg.histogram("h").record(4);
  const std::string j = reg.toJson();
  EXPECT_NE(j.find("\"counters\":{\"a\":3}"), std::string::npos) << j;
  EXPECT_NE(j.find("\"gauges\":{\"g\":-2}"), std::string::npos) << j;
  EXPECT_NE(j.find("\"count\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"sum\":4"), std::string::npos) << j;
}

}  // namespace
}  // namespace adlsym::telemetry
