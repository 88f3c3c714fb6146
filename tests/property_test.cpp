// Property-style and parameterized suites for the system's core
// invariants: CUSUM behaviour under arbitrary inputs, scale-invariance of
// the normalized statistic (the paper's central design claim), detection
// monotonicity, and robustness of the parsers against mutated input.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "syndog/attack/flood.hpp"
#include "syndog/classify/segment.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/detect/cusum.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/trace/periods.hpp"
#include "syndog/trace/site.hpp"
#include "syndog/stats/online.hpp"
#include "syndog/stats/series.hpp"

namespace syndog {
namespace {

// --- CUSUM invariants over random inputs ------------------------------------------

class CusumPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CusumPropertyTest, StatisticIsBoundedByIncrementsAndNonNegative) {
  util::Rng rng(GetParam());
  detect::NonParametricCusum cusum({0.35, 1.05});
  double prev = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.normal(0.0, 1.0);
    const double y = cusum.update(x).statistic;
    EXPECT_GE(y, 0.0);
    // One step can move the statistic by at most |x - a|.
    EXPECT_LE(std::abs(y - prev), std::abs(x - 0.35) + 1e-12);
    prev = y;
  }
}

TEST_P(CusumPropertyTest, MonotoneInInputSeries) {
  // Element-wise larger inputs can never produce a smaller statistic:
  // a flood added on top of any background only helps detection.
  util::Rng rng(GetParam() ^ 0x5eed);
  std::vector<double> base(500);
  std::vector<double> boosted(500);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = rng.uniform(-0.5, 0.5);
    boosted[i] = base[i] + (rng.bernoulli(0.3) ? rng.uniform(0.0, 1.0)
                                               : 0.0);
  }
  detect::NonParametricCusum a({0.35, 1.05});
  detect::NonParametricCusum b({0.35, 1.05});
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double ya = a.update(base[i]).statistic;
    const double yb = b.update(boosted[i]).statistic;
    EXPECT_GE(yb, ya - 1e-12) << "at step " << i;
  }
}

TEST_P(CusumPropertyTest, RecursiveFormEqualsMaxIncrementForm) {
  // Eq. (3): yn = Sn - min_{k<=n} Sk, with Sn the running sum of
  // (Xi - a). The recursive Eq. (2) must agree exactly.
  util::Rng rng(GetParam() ^ 0xf00d);
  detect::NonParametricCusum cusum({0.35, 1.05});
  double running = 0.0;
  double min_running = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0.1, 0.8);
    running += x - 0.35;
    min_running = std::min(min_running, running);
    const double y = cusum.update(x).statistic;
    EXPECT_NEAR(y, running - min_running, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CusumPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- scale invariance of the normalized statistic -----------------------------------

class ScaleInvarianceTest : public ::testing::TestWithParam<double> {};

TEST_P(ScaleInvarianceTest, NormalizedMeanIndependentOfSiteSize) {
  // The paper's core design claim (§3.2): Xn = Delta/K does not depend on
  // the network size — only on TCP protocol behaviour. Scale the site's
  // rate by 10-1000x and the mean of Xn must stay put (= c of the loss
  // model), far below a = 0.35.
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kAuckland);
  spec.duration = util::SimTime::minutes(30);
  spec.inbound_rate = 0.0;
  spec.disruptions_per_hour = 0.0;
  spec.arrival_kind = trace::ArrivalKind::kPoisson;
  spec.outbound_rate = GetParam();

  const trace::ConnectionTrace tr = trace::generate_site_trace(spec, 77);
  const trace::PeriodSeries ps =
      trace::extract_periods(tr, trace::kObservationPeriod);
  const auto reports = core::run_over_series(
      core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);

  stats::OnlineStats x_stats;
  for (const core::PeriodReport& r : reports) x_stats.add(r.x);
  const double expected_c = trace::normalized_difference_mean(
      spec.handshake.no_answer_probability);
  // Small sites are noisier; tolerance scales with 1/sqrt(rate).
  EXPECT_NEAR(x_stats.mean(), expected_c,
              0.02 + 0.3 / std::sqrt(GetParam()));
  EXPECT_LT(x_stats.mean(), 0.35 / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, ScaleInvarianceTest,
                         ::testing::Values(2.0, 10.0, 50.0, 200.0, 1000.0),
                         [](const auto& info) {
                           return "rate_" + std::to_string(
                               static_cast<int>(info.param));
                         });

// --- detection monotonicity -----------------------------------------------------

TEST(DetectionPropertyTest, StatisticGrowsWithFloodRate) {
  // For the same background and onset, a faster flood can only push the
  // peak statistic higher.
  const trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  const trace::ConnectionTrace background =
      trace::generate_site_trace(spec, 31);
  const trace::PeriodSeries base =
      trace::extract_periods(background, trace::kObservationPeriod);

  double prev_peak = -1.0;
  double first_peak = 0.0;
  double last_peak = 0.0;
  for (const double fi : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    trace::PeriodSeries ps = base;
    attack::FloodSpec flood;
    flood.rate = fi;
    flood.start = util::SimTime::minutes(5);
    util::Rng rng(7);  // same seed: coupled flood streams
    ps.add_outbound_syns(trace::bucket_times(
        attack::generate_flood_times(flood, rng), ps.period, ps.size()));
    const auto reports = core::run_over_series(
        core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
    double peak = 0.0;
    for (const auto& r : reports) peak = std::max(peak, r.y);
    // Non-decreasing everywhere (sub-floor rates can tie at zero)...
    EXPECT_GE(peak, prev_peak) << "fi=" << fi;
    prev_peak = peak;
    if (fi == 10.0) first_peak = peak;
    if (fi == 160.0) last_peak = peak;
  }
  // ...and strictly growing across the floor.
  EXPECT_GT(last_peak, first_peak + 1.0);
}

TEST(DetectionPropertyTest, FloodBelowFloorNeverCrossesDesignThreshold) {
  // Eq. (8): floods below f_min = (a-c)K/t0 cannot accumulate past any
  // fixed threshold in bounded time — the statistic stays near zero.
  const trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    trace::PeriodSeries ps = trace::extract_periods(
        trace::generate_site_trace(spec, 100 + seed),
        trace::kObservationPeriod);
    attack::FloodSpec flood;
    flood.rate = 10.0;  // far below UNC's 37 SYN/s floor
    flood.start = util::SimTime::minutes(5);
    util::Rng rng(seed);
    ps.add_outbound_syns(trace::bucket_times(
        attack::generate_flood_times(flood, rng), ps.period, ps.size()));
    const auto reports = core::run_over_series(
        core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
    for (const auto& r : reports) {
      EXPECT_LT(r.y, 1.05) << "seed " << seed;
    }
  }
}

// --- parser robustness ------------------------------------------------------------

TEST(FuzzLiteTest, MutatedFramesNeverCrashDecoderOrClassifier) {
  util::Rng rng(12345);
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  const net::ByteBuffer original = net::encode_frame(net::make_syn(spec));

  for (int round = 0; round < 2000; ++round) {
    net::ByteBuffer frame = original;
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      frame[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1))] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.3)) {
      frame.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()))));
    }
    // Must not crash; results are unconstrained.
    net::Packet packet;
    (void)net::decode_frame_into(frame, packet);
    (void)classify::classify_frame_fast(frame);
  }
}

TEST(FuzzLiteTest, TruncatedPcapFilesNeverCrashReader) {
  std::stringstream buf;
  pcap::Writer writer(buf);
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  for (int i = 0; i < 4; ++i) {
    writer.write(util::SimTime::seconds(i),
                 net::encode_frame(net::make_syn(spec)));
  }
  const std::string full = buf.str();
  for (std::size_t len = 0; len <= full.size(); len += 3) {
    std::stringstream cut(full.substr(0, len));
    try {
      pcap::Reader reader(cut);
      while (reader.next()) {
      }
    } catch (const std::runtime_error&) {
      // Malformed header: acceptable, as long as it's an exception.
    }
  }
}

// --- sweep: every site detects a strong flood with the universal parameters ----------

class UniversalParametersTest : public ::testing::TestWithParam<
                                    trace::SiteId> {};

TEST_P(UniversalParametersTest, FiveTimesFloorIsAlwaysCaught) {
  // The same (a, N) works at every site once rates are normalized: a
  // flood at 5x the site's own floor is detected quickly, with no false
  // alarm beforehand.
  const trace::SiteSpec spec = trace::site_spec(GetParam());
  trace::PeriodSeries ps = trace::extract_periods(
      trace::generate_site_trace(spec, 55), trace::kObservationPeriod);
  const double fmin = core::SynDog::min_detectable_rate(
      0.35, spec.expected_c, spec.expected_syn_ack_per_period,
      trace::kObservationPeriod);

  attack::FloodSpec flood;
  flood.rate = 5.0 * fmin;
  flood.start = util::SimTime::from_seconds(
      spec.duration.to_seconds() / 3.0);
  util::Rng rng(5);
  ps.add_outbound_syns(trace::bucket_times(
      attack::generate_flood_times(flood, rng), ps.period, ps.size()));

  const auto reports = core::run_over_series(
      core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
  const std::int64_t onset = flood.start / ps.period;
  std::int64_t first_alarm = -1;
  for (const auto& r : reports) {
    if (r.alarm && first_alarm < 0) first_alarm = r.period_index;
  }
  ASSERT_GE(first_alarm, onset) << "false alarm before the flood";
  EXPECT_LE(first_alarm, onset + 5) << "detection too slow at 5x floor";
}

INSTANTIATE_TEST_SUITE_P(AllSites, UniversalParametersTest,
                         ::testing::Values(trace::SiteId::kHarvard,
                                           trace::SiteId::kUnc,
                                           trace::SiteId::kAuckland),
                         [](const auto& info) {
                           return std::string(trace::to_string(info.param));
                         });

}  // namespace
}  // namespace syndog
