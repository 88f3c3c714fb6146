#include <gtest/gtest.h>

#include <cmath>

#include "syndog/detect/charts.hpp"
#include "syndog/detect/cusum.hpp"
#include "syndog/detect/evaluator.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::detect {
namespace {

// --- NonParametricCusum -------------------------------------------------------

TEST(NpCusumTest, MatchesPaperRecursionByHand) {
  // yn = (y(n-1) + Xn - a)^+ with a = 0.35.
  NonParametricCusum cusum({0.35, 1.05});
  EXPECT_DOUBLE_EQ(cusum.update(0.05).statistic, 0.0);   // negative -> 0
  EXPECT_DOUBLE_EQ(cusum.update(0.55).statistic, 0.2);   // +0.2
  EXPECT_DOUBLE_EQ(cusum.update(0.75).statistic, 0.6);   // +0.4
  const Decision d = cusum.update(1.00);                 // +0.65 -> 1.25
  EXPECT_DOUBLE_EQ(d.statistic, 1.25);
  EXPECT_TRUE(d.alarm);
}

TEST(NpCusumTest, StatisticNeverNegative) {
  NonParametricCusum cusum({0.35, 1.05});
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Decision d = cusum.update(rng.uniform(-2.0, 0.3));
    EXPECT_GE(d.statistic, 0.0);
  }
}

TEST(NpCusumTest, ResetsToZeroFrequentlyUnderNormalInput) {
  // The paper: "the test statistic yn will be reset to zero frequently
  // and will not accumulate with time" when E[Xn] < a.
  NonParametricCusum cusum({0.35, 1.05});
  util::Rng rng(2);
  int zeros = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (cusum.update(rng.uniform(0.0, 0.2)).statistic == 0.0) ++zeros;
  }
  EXPECT_GT(zeros, n * 9 / 10);
}

TEST(NpCusumTest, DetectsMeanShiftWithExpectedDelay) {
  // Drift h - a = 0.35 per step above the offset => ~3 steps to cross
  // N = 1.05 (the paper's designed detection time with h = 2a).
  NonParametricCusum cusum({0.35, 1.05});
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(cusum.update(0.05).alarm);
  }
  int steps = 0;
  while (!cusum.update(0.70).alarm) {
    ++steps;
    ASSERT_LT(steps, 10);
  }
  EXPECT_EQ(steps + 1, 4);  // 3 full steps put y at exactly 1.05; 4th crosses
}

TEST(NpCusumTest, SiteDesignClampsTheOffsetAndKeepsAThreePeriodDelay) {
  // A noisy site caps at the universal parameters (a = 0.35, N = 1.05),
  // a silent one floors at a = 0.05; in between a = c + 6 sigma.
  EXPECT_EQ(site_design(0.2, 0.1).a, kUniversalDriftOffset);
  EXPECT_DOUBLE_EQ(site_design(0.2, 0.1).threshold, 1.05);
  EXPECT_EQ(site_design(0.0, 0.0).a, 0.05);
  const SiteDesign unc = site_design(0.05, 0.025);
  EXPECT_DOUBLE_EQ(unc.a, 0.2);
  EXPECT_EQ(unc.h, 2.0 * unc.a);
  EXPECT_EQ(unc.threshold, 3.0 * unc.a);
  // Eq. (7) with c = 0: N / (h - a) = 3 periods.
  EXPECT_DOUBLE_EQ(unc.threshold / (unc.h - unc.a), 3.0);
}

TEST(NpCusumTest, BoundedVariantCapsStatisticButNotDetection) {
  NonParametricCusum unbounded({0.35, 1.05, 0.0});
  NonParametricCusum bounded({0.35, 1.05, 3.0});
  // Same long flood: both alarm at the same step...
  int first_alarm_unbounded = -1;
  int first_alarm_bounded = -1;
  for (int i = 0; i < 50; ++i) {
    if (unbounded.update(1.0).alarm && first_alarm_unbounded < 0) {
      first_alarm_unbounded = i;
    }
    if (bounded.update(1.0).alarm && first_alarm_bounded < 0) {
      first_alarm_bounded = i;
    }
  }
  EXPECT_EQ(first_alarm_unbounded, first_alarm_bounded);
  EXPECT_GT(unbounded.statistic(), 30.0);
  EXPECT_DOUBLE_EQ(bounded.statistic(), 3.0);
  // ...but the bounded one de-alarms quickly after the flood ends.
  int recovery = 0;
  while (bounded.update(0.05).alarm) {
    ++recovery;
    ASSERT_LT(recovery, 20);
  }
  EXPECT_LE(recovery, 7);  // (3.0 - 1.05) / 0.3 periods
}

TEST(NpCusumTest, CapBelowThresholdRejected) {
  EXPECT_THROW(NonParametricCusum({0.35, 1.05, 0.5}),
               std::invalid_argument);
}

TEST(NpCusumTest, ResetRestoresInitialState) {
  NonParametricCusum cusum({0.35, 1.05});
  (void)cusum.update(5.0);
  EXPECT_GT(cusum.statistic(), 0.0);
  cusum.reset();
  EXPECT_DOUBLE_EQ(cusum.statistic(), 0.0);
  EXPECT_EQ(cusum.samples_seen(), 0);
}

TEST(NpCusumTest, RejectsBadThreshold) {
  EXPECT_THROW(NonParametricCusum({0.35, 0.0}), std::invalid_argument);
  EXPECT_THROW(NonParametricCusum({0.35, -1.0}), std::invalid_argument);
}

// --- ParametricCusum ------------------------------------------------------------

TEST(ParametricCusumTest, DetectsModeledShiftQuickly) {
  // Threshold 15: under H0 the LLR increment has mean -2 and sigma 2, so
  // pre-change excursions stay below it; under H1 the drift is +2/step.
  ParametricCusum cusum({0.0, 1.0, 0.5, 15.0});
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    ASSERT_FALSE(cusum.update(rng.normal(0.0, 0.5)).alarm) << i;
  }
  int steps = 0;
  while (!cusum.update(rng.normal(1.0, 0.5)).alarm) {
    ++steps;
    ASSERT_LT(steps, 60);
  }
  EXPECT_LT(steps, 25);
}

TEST(ParametricCusumTest, ValidatesParameters) {
  EXPECT_THROW(ParametricCusum({0.0, 1.0, 0.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(ParametricCusum({1.0, 1.0, 0.5, 5.0}), std::invalid_argument);
  EXPECT_THROW(ParametricCusum({0.0, 1.0, 0.5, 0.0}), std::invalid_argument);
}

// --- charts ------------------------------------------------------------------

TEST(EwmaChartTest, FlagsSustainedShift) {
  EwmaChart chart(EwmaChartParams{});
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    ASSERT_FALSE(chart.update(rng.normal(1.0, 0.1)).alarm) << i;
  }
  bool alarmed = false;
  for (int i = 0; i < 50; ++i) {
    if (chart.update(rng.normal(2.0, 0.1)).alarm) {
      alarmed = true;
      break;
    }
  }
  EXPECT_TRUE(alarmed);
}

TEST(EwmaChartTest, BaselineFreezesDuringAlarm) {
  EwmaChart chart(EwmaChartParams{});
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) (void)chart.update(rng.normal(1.0, 0.1));
  // A long-lasting shift must not be absorbed into the baseline: the
  // alarm should persist, not fade.
  int alarms = 0;
  for (int i = 0; i < 200; ++i) {
    if (chart.update(rng.normal(3.0, 0.1)).alarm) ++alarms;
  }
  EXPECT_GT(alarms, 150);
}

TEST(ShewhartTest, FiresOnOutlierOnly) {
  ShewhartChart chart(ShewhartParams{});
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    (void)chart.update(rng.normal(10.0, 1.0));
  }
  EXPECT_TRUE(chart.update(30.0).alarm);
  EXPECT_FALSE(chart.update(10.5).alarm);  // memoryless: back to normal
}

TEST(StaticThresholdTest, PureComparison) {
  StaticThreshold t(5.0);
  EXPECT_FALSE(t.update(5.0).alarm);
  EXPECT_TRUE(t.update(5.01).alarm);
  EXPECT_DOUBLE_EQ(t.threshold(), 5.0);
}

TEST(ChartsTest, ParameterValidation) {
  EXPECT_THROW(EwmaChart(EwmaChartParams{0.0, 3.0, 0.9, 8}),
               std::invalid_argument);
  EXPECT_THROW(EwmaChart(EwmaChartParams{0.2, -1.0, 0.9, 8}),
               std::invalid_argument);
  EXPECT_THROW(ShewhartChart(ShewhartParams{0.0, 0.9, 8}),
               std::invalid_argument);
}

// --- evaluator ------------------------------------------------------------------

TEST(EvaluatorTest, MeasuresDelayAndFalseAlarms) {
  NonParametricCusum cusum({0.35, 1.05});
  // Pre-onset spike (not sustained) then a real change at index 5.
  const std::vector<double> series = {0.0, 2.0, 0.0, 0.0, 0.0,
                                      1.0, 1.0, 1.0, 1.0, 1.0};
  const TrialResult result = run_trial(cusum, series, 5);
  EXPECT_EQ(result.false_alarms, 1);  // the isolated spike at index 1
  ASSERT_TRUE(result.detection_delay.has_value());
  // The spike decays to y=0.6 by the onset; the first attack sample adds
  // 0.65, crossing N=1.05 immediately: delay 0.
  EXPECT_EQ(*result.detection_delay, 0);
  EXPECT_EQ(result.statistic_path.size(), series.size());
}

TEST(EvaluatorTest, UndetectedTrialReportsNullopt) {
  NonParametricCusum cusum({0.35, 1.05});
  const std::vector<double> series(20, 0.1);
  const TrialResult result = run_trial(cusum, series, 10);
  EXPECT_FALSE(result.detection_delay.has_value());
  EXPECT_EQ(result.false_alarms, 0);
}

TEST(EvaluatorTest, EnsembleAggregation) {
  const EnsembleResult r = evaluate_ensemble(
      [] {
        return std::make_unique<NonParametricCusum>(
            NonParametricCusumParams{0.35, 1.05});
      },
      [](std::uint64_t trial) {
        // Even trials detectable, odd trials not.
        std::vector<double> series(30, 0.0);
        if (trial % 2 == 0) {
          for (std::size_t i = 10; i < series.size(); ++i) series[i] = 1.0;
        }
        return TrialSpec{series, 10};
      },
      10);
  EXPECT_EQ(r.trials, 10);
  EXPECT_EQ(r.detected, 5);
  EXPECT_DOUBLE_EQ(r.detection_probability, 0.5);
  EXPECT_GT(r.mean_detection_delay, 0.0);
  EXPECT_TRUE(std::isinf(r.mean_false_alarm_spacing));  // no false alarms
}

TEST(EvaluatorTest, ValidatesInputs) {
  const auto factory = [] {
    return std::make_unique<NonParametricCusum>(
        NonParametricCusumParams{0.35, 1.05});
  };
  EXPECT_THROW(
      (void)evaluate_ensemble(
          factory,
          [](std::uint64_t) {
            return TrialSpec{{1.0}, 5};  // onset beyond end
          },
          1),
      std::invalid_argument);
  EXPECT_THROW((void)evaluate_ensemble(
                   factory,
                   [](std::uint64_t) { return TrialSpec{{}, 0}; }, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace syndog::detect
