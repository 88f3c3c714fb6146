#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "syndog/util/config.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/sorted.hpp"
#include "syndog/util/strings.hpp"
#include "syndog/util/table.hpp"
#include "syndog/util/time.hpp"

namespace syndog::util {
namespace {

// --- SimTime ---------------------------------------------------------------

TEST(SimTimeTest, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ(SimTime::minutes(2), SimTime::seconds(120));
  EXPECT_EQ(SimTime::hours(1), SimTime::minutes(60));
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::seconds(5);
  const SimTime b = SimTime::seconds(3);
  EXPECT_EQ((a + b).to_seconds(), 8.0);
  EXPECT_EQ((a - b).to_seconds(), 2.0);
  EXPECT_EQ(a * std::int64_t{3}, SimTime::seconds(15));
  EXPECT_EQ(a / b, 1);  // integer division: whole intervals
  EXPECT_EQ(SimTime::seconds(60) / SimTime::seconds(20), 3);
}

TEST(SimTimeTest, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_seconds(-0.25).ns(), -250'000'000);
  EXPECT_EQ(SimTime::from_seconds(1e-9).ns(), 1);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::seconds(1), SimTime::seconds(2));
  EXPECT_GE(SimTime::seconds(2), SimTime::seconds(2));
  EXPECT_EQ(SimTime::zero().ns(), 0);
}

TEST(SimTimeTest, ToStringFormat) {
  EXPECT_EQ(SimTime::seconds(3723).to_string(), "1:02:03.000");
  EXPECT_EQ(SimTime::milliseconds(45).to_string(), "0:00:00.045");
  EXPECT_EQ((SimTime::zero() - SimTime::seconds(1)).to_string(),
            "-0:00:01.000");
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, ChildStreamsDiffer) {
  Rng a = Rng::child(42, 0);
  Rng b = Rng::child(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const std::int64_t v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ParetoSupportAndMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  const double alpha = 2.5;
  const double xm = 1.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.pareto(alpha, xm);
    ASSERT_GE(x, xm);
    sum += x;
  }
  // Pareto mean = alpha*xm/(alpha-1) = 5/3.
  EXPECT_NEAR(sum / n, alpha / (alpha - 1.0), 0.08);
}

TEST(RngTest, InvalidParametersThrow) {
  Rng rng(1);
  EXPECT_THROW((void)rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.pareto(1.0, -1.0), std::invalid_argument);
}

// --- strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.05, 3), "1.05");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(0.35, 2), "0.35");
  EXPECT_EQ(format_double(-0.0, 2), "0");
}

TEST(StringsTest, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(14000), "14,000");
  EXPECT_EQ(format_count(300000), "300,000");
  EXPECT_EQ(format_count(-1234567), "-1,234,567");
}

TEST(StringsTest, Strprintf) {
  EXPECT_EQ(strprintf("fi=%d prob=%.2f", 45, 0.8), "fi=45 prob=0.80");
  EXPECT_EQ(strprintf("%s", ""), "");
}

// --- Config ----------------------------------------------------------------

TEST(ConfigTest, FromArgs) {
  const char* argv[] = {"trials=25", "site=unc", "rate = 0.35"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_int("trials", 0), 25);
  EXPECT_EQ(cfg.get_string("site", ""), "unc");
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 0.35);  // trimmed
  EXPECT_EQ(cfg.size(), 3u);
}

TEST(ConfigTest, FallbacksAndErrors) {
  const char* argv[] = {"x=notanint"};
  const Config cfg = Config::from_args(1, argv);
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_THROW((void)cfg.get_int("x", 0), std::invalid_argument);
  const char* bad[] = {"justakey"};
  EXPECT_THROW((void)Config::from_args(1, bad), std::invalid_argument);
}

TEST(ConfigTest, MergeOverrides) {
  const char* base_args[] = {"a=1", "b=2"};
  const char* override_args[] = {"b=3", "c=4"};
  Config base = Config::from_args(2, base_args);
  base.merge(Config::from_args(2, override_args));
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(ConfigTest, EnvVarReadsProcessEnvironment) {
  ::setenv("SYNDOG_UTIL_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_var("SYNDOG_UTIL_TEST_VAR"),
            std::optional<std::string>("hello"));
  ::unsetenv("SYNDOG_UTIL_TEST_VAR");
  EXPECT_FALSE(env_var("SYNDOG_UTIL_TEST_VAR").has_value());
}

// --- TextTable -------------------------------------------------------------

TEST(TableTest, RendersAlignedTable) {
  TextTable t({"col", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| col    | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(SortedTest, ItemsAreKeyOrdered) {
  std::unordered_map<int, std::string> umap{{3, "c"}, {1, "a"}, {2, "b"}};
  const auto view = sorted_items(umap);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0]->first, 1);
  EXPECT_EQ(view[1]->first, 2);
  EXPECT_EQ(view[2]->first, 3);
  EXPECT_EQ(view[0]->second, "a");
}

TEST(SortedTest, MutableItemsWriteThrough) {
  std::unordered_map<int, int> umap{{2, 0}, {1, 0}};
  for (auto* entry : sorted_items(umap)) entry->second = entry->first * 10;
  EXPECT_EQ(umap[1], 10);
  EXPECT_EQ(umap[2], 20);
}

TEST(SortedTest, CustomComparatorReverses) {
  std::unordered_map<int, int> umap{{1, 0}, {3, 0}, {2, 0}};
  const auto view = sorted_items(umap, std::greater<int>{});
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0]->first, 3);
  EXPECT_EQ(view[2]->first, 1);
}

TEST(SortedTest, KeysFromSetAreSorted) {
  std::unordered_set<std::string> uset{"delta", "alpha", "charlie"};
  const auto keys = sorted_keys(uset);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front(), "alpha");
  EXPECT_EQ(keys.back(), "delta");
}

TEST(SortedTest, EmptyContainersGiveEmptyViews) {
  std::unordered_map<int, int> umap;
  std::unordered_set<int> uset;
  EXPECT_TRUE(sorted_items(umap).empty());
  EXPECT_TRUE(sorted_keys(uset).empty());
}

TEST(TableTest, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiChartTest, RendersSeriesAndThreshold) {
  AsciiChartOptions opts;
  opts.width = 40;
  opts.height = 8;
  AsciiChart chart(opts);
  chart.add_series("up", {0, 1, 2, 3, 4, 5});
  chart.add_threshold("N", 4.0);
  const std::string out = chart.to_string();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
  EXPECT_NE(out.find("N (4)"), std::string::npos);
}

}  // namespace
}  // namespace syndog::util
