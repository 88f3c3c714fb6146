#include <gtest/gtest.h>

#include <algorithm>

#include "syndog/attack/campaign.hpp"
#include "syndog/attack/flood.hpp"
#include "syndog/trace/periods.hpp"

namespace syndog::attack {
namespace {

using util::SimTime;

TEST(FloodTest, ConstantRateProducesExpectedVolume) {
  FloodSpec spec;
  spec.rate = 100.0;
  spec.start = SimTime::minutes(1);
  spec.duration = SimTime::minutes(10);
  util::Rng rng(1);
  const auto times = generate_flood_times(spec, rng);
  // Mean volume: rate x duration = 100/s x 600 s.
  EXPECT_NEAR(static_cast<double>(times.size()), 60000.0, 60000.0 * 0.05);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GE(times.front(), spec.start);
  EXPECT_LT(times.back(), spec.start + spec.duration);
}

TEST(FloodTest, AllShapesDeliverTheSameMeanVolume) {
  // §4.2: detection depends only on volume; the generators must agree on
  // volume to make that a fair comparison.
  for (const FloodShape shape :
       {FloodShape::kConstant, FloodShape::kOnOff, FloodShape::kRamp}) {
    FloodSpec spec;
    spec.rate = 60.0;
    spec.shape = shape;
    spec.duration = SimTime::minutes(10);
    util::Rng rng(7);
    const auto times = generate_flood_times(spec, rng);
    EXPECT_NEAR(static_cast<double>(times.size()), 36000.0, 36000.0 * 0.07)
        << to_string(shape);
  }
}

TEST(FloodTest, OnOffShapeIsActuallyBursty) {
  FloodSpec spec;
  spec.rate = 50.0;
  spec.shape = FloodShape::kOnOff;
  spec.on_off_period = SimTime::seconds(10);
  spec.duty_cycle = 0.5;
  spec.start = SimTime::zero();
  spec.duration = SimTime::minutes(5);
  util::Rng rng(3);
  const auto times = generate_flood_times(spec, rng);
  // Bucket at 5 s (half the burst period): alternating full/empty buckets.
  const auto counts =
      trace::bucket_times(times, SimTime::seconds(5), 60);
  int empty = 0;
  int busy = 0;
  for (auto c : counts) {
    if (c == 0) ++empty;
    if (c > 300) ++busy;  // ~100 SYN/s during ON
  }
  EXPECT_GT(empty, 20);
  EXPECT_GT(busy, 20);
}

TEST(FloodTest, RampStartsSlowEndsFast) {
  FloodSpec spec;
  spec.rate = 50.0;
  spec.shape = FloodShape::kRamp;
  spec.start = SimTime::zero();
  spec.duration = SimTime::minutes(10);
  util::Rng rng(5);
  const auto times = generate_flood_times(spec, rng);
  const auto half = spec.duration.to_seconds() / 2.0;
  const auto first_half = std::count_if(
      times.begin(), times.end(),
      [&](SimTime t) { return t.to_seconds() < half; });
  // A linear ramp puts 25% of the volume in the first half.
  EXPECT_NEAR(static_cast<double>(first_half) /
                  static_cast<double>(times.size()),
              0.25, 0.04);
}

TEST(FloodTest, Validation) {
  FloodSpec spec;
  spec.rate = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.rate = 10.0;
  spec.duration = SimTime::zero();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.duration = SimTime::minutes(1);
  spec.shape = FloodShape::kOnOff;
  spec.duty_cycle = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// --- campaign ------------------------------------------------------------------

TEST(CampaignTest, PerStubRateIsEvenSplit) {
  CampaignSpec spec;
  spec.aggregate_rate = 14000.0;
  spec.stub_networks = 378;
  EXPECT_NEAR(spec.per_stub_rate(), 37.0, 0.1);  // the paper's UNC example
  const FloodSpec flood = spec.stub_flood();
  EXPECT_NEAR(flood.rate, 37.0, 0.1);
}

TEST(CampaignTest, MaxHidingStubsMatchesPaperExamples) {
  // §4.2.3: V = 14,000, f_min = 37 -> 378 stubs; f_min = 1.75 -> 8,000.
  EXPECT_EQ(max_hiding_stubs(kFirewalledServerRate, 37.0), 378);
  EXPECT_EQ(max_hiding_stubs(kFirewalledServerRate, 1.75), 8000);
  EXPECT_THROW((void)max_hiding_stubs(0.0, 1.0), std::invalid_argument);
}

TEST(CampaignTest, DeterministicSlavesAndFloods) {
  CampaignSpec spec;
  spec.stub_networks = 10;
  spec.aggregate_rate = 500.0;
  spec.duration = SimTime::minutes(1);
  const Campaign a(spec, 99);
  const Campaign b(spec, 99);
  for (std::int64_t stub = 0; stub < 10; ++stub) {
    EXPECT_EQ(a.slaves_in_stub(stub)[0].host_index,
              b.slaves_in_stub(stub)[0].host_index);
    EXPECT_EQ(a.flood_times_in_stub(stub).size(),
              b.flood_times_in_stub(stub).size());
  }
  // Different stubs get decorrelated flood streams.
  EXPECT_NE(a.flood_times_in_stub(0), a.flood_times_in_stub(1));
}

TEST(CampaignTest, BoundsChecked) {
  const Campaign c(CampaignSpec{}, 1);
  EXPECT_THROW((void)c.slaves_in_stub(-1), std::out_of_range);
  EXPECT_THROW((void)c.flood_times_in_stub(100000), std::out_of_range);
}

}  // namespace
}  // namespace syndog::attack
