#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "syndog/obs/json.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/obs/wallclock.hpp"

namespace syndog::obs {
namespace {

// --- Registry / instruments ------------------------------------------------

TEST(MetricsTest, CountersAndGaugesAccumulate) {
  Registry reg;
  Counter& c = reg.counter("packets");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("packets"), &c);  // stable reference, same instrument

  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(MetricsTest, HistogramBucketEdges) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1        -> bucket 0
  h.observe(1.0);    // == bound    -> bucket 0 (bounds are inclusive)
  h.observe(1.0001); //             -> bucket 1
  h.observe(10.0);   //             -> bucket 1
  h.observe(100.0);  //             -> bucket 2
  h.observe(1e6);    // above last  -> overflow bucket
  const std::vector<std::uint64_t> expected = {2, 2, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 1e6);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);

  Registry reg;
  (void)reg.histogram("lat", {1.0, 2.0});
  // Same bounds: same instrument. Different bounds: refused, because the
  // exporter can never rebin.
  (void)reg.histogram("lat", {1.0, 2.0});
  EXPECT_THROW((void)reg.histogram("lat", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsTest, SnapshotIsSortedAndDeterministic) {
  const auto build = [](Registry& reg) {
    reg.counter("zeta").add(2);
    reg.counter("alpha").add(1);
    reg.gauge("mid").set(0.25);
    reg.histogram("lat", {1.0, 4.0}).observe(3.0);
  };
  Registry a;
  Registry b;
  build(a);
  build(b);

  const MetricsSnapshot snap = a.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");

  // Identical registry state renders to byte-identical JSON.
  EXPECT_EQ(snap.to_json(), b.snapshot().to_json());
  EXPECT_NE(snap.to_json().find("\"alpha\":1"), std::string::npos);
}

// --- Wall-clock seam -------------------------------------------------------

TEST(WallClockTest, ScopedTimerRecordsElapsed) {
  ManualWallClock clock;
  Registry reg;
  Histogram& hist = reg.histogram("t_ns", {100.0, 1000.0});
  {
    ScopedTimer timer(clock, hist);
    clock.advance_ns(250);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 250.0);
  EXPECT_EQ(hist.bucket_counts()[1], 1u);
}

TEST(WallClockTest, LatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds = latency_buckets_ns();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(WallClockTest, RealClockIsMonotonic) {
  const WallClock clock;
  const std::int64_t a = clock.now_ns();
  const std::int64_t b = clock.now_ns();
  EXPECT_GE(b, a);
}

// --- JSON rendering --------------------------------------------------------

TEST(JsonTest, NumbersRoundTripShortest) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(2114.0), "2114");
  EXPECT_EQ(json_number(std::int64_t{-5}), "-5");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");  // JSON has no infinity
}

TEST(JsonTest, StringsEscape) {
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace syndog::obs
