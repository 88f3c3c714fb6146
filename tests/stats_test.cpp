#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "syndog/stats/online.hpp"
#include "syndog/stats/series.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::stats {
namespace {

// --- OnlineStats --------------------------------------------------------------

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(OnlineStatsTest, EmptyIsSafe) {
  const OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  util::Rng rng(3);
  OnlineStats whole;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// --- Ewma -------------------------------------------------------------------

TEST(EwmaTest, FirstSamplePrimesDirectly) {
  Ewma e(0.9);
  EXPECT_FALSE(e.primed());
  e.add(100.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);  // no cold-start bias toward zero
}

TEST(EwmaTest, MatchesPaperEquationOne) {
  // K(n) = alpha*K(n-1) + (1-alpha)*SYNACK(n), Eq. (1) of the paper.
  Ewma e(0.9);
  e.add(100.0);
  e.add(200.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.9 * 100.0 + 0.1 * 200.0);
  e.add(50.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.9 * 110.0 + 0.1 * 50.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(0.8);
  for (int i = 0; i < 200; ++i) e.add(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(EwmaTest, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.0), std::invalid_argument);
  EXPECT_THROW(Ewma(-0.5), std::invalid_argument);
}

TEST(EwmaMeanVarTest, TracksMoments) {
  util::Rng rng(5);
  EwmaMeanVar mv(0.99);
  for (int i = 0; i < 20000; ++i) mv.add(rng.normal(7.0, 3.0));
  EXPECT_NEAR(mv.mean(), 7.0, 0.5);
  EXPECT_NEAR(mv.stddev(), 3.0, 0.5);
}

TEST(SeriesTest, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> up = {2, 4, 6, 8, 10};
  const std::vector<double> down = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, down), -1.0, 1e-12);
  EXPECT_EQ(pearson_correlation(xs, {7, 7, 7, 7, 7}), 0.0);  // constant
  EXPECT_THROW((void)pearson_correlation(xs, {1.0}), std::invalid_argument);
}

TEST(SeriesTest, FirstCrossing) {
  EXPECT_EQ(first_crossing({0.1, 0.5, 1.2, 0.3}, 1.0), 2);
  EXPECT_EQ(first_crossing({0.1, 0.5}, 1.0), -1);
  EXPECT_EQ(first_crossing({}, 1.0), -1);
  EXPECT_EQ(first_crossing({1.0}, 1.0), -1);  // strictly greater
}

}  // namespace
}  // namespace syndog::stats
