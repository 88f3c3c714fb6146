#include <gtest/gtest.h>

#include <algorithm>

#include "syndog/stats/online.hpp"
#include "syndog/stats/series.hpp"
#include "syndog/trace/arrivals.hpp"
#include "syndog/trace/handshake.hpp"
#include "syndog/trace/periods.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"

namespace syndog::trace {
namespace {

// --- arrival models -------------------------------------------------------------

class ArrivalModelRateTest
    : public ::testing::TestWithParam<ArrivalKind> {};

TEST_P(ArrivalModelRateTest, LongRunRateMatchesMeanRate) {
  const auto model = make_arrival_model(GetParam(), 20.0, 40);
  util::Rng rng(11);
  const util::SimTime duration = util::SimTime::minutes(60);
  const auto times = model->generate(duration, rng);
  const double measured =
      static_cast<double>(times.size()) / duration.to_seconds();
  EXPECT_NEAR(measured, model->mean_rate(), model->mean_rate() * 0.2)
      << to_string(GetParam());
  EXPECT_NEAR(model->mean_rate(), 20.0, 0.5) << to_string(GetParam());
}

TEST_P(ArrivalModelRateTest, TimesAreSortedAndInRange) {
  const auto model = make_arrival_model(GetParam(), 5.0, 10);
  util::Rng rng(13);
  const util::SimTime duration = util::SimTime::minutes(10);
  const auto times = model->generate(duration, rng);
  ASSERT_FALSE(times.empty());
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GE(times.front(), util::SimTime::zero());
  EXPECT_LT(times.back(), duration);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ArrivalModelRateTest,
                         ::testing::Values(ArrivalKind::kPoisson,
                                           ArrivalKind::kMmpp,
                                           ArrivalKind::kParetoOnOff,
                                           ArrivalKind::kWeibull),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) ==
                                          "pareto-onoff"
                                      ? "pareto_onoff"
                                      : std::string(to_string(info.param));
                         });

TEST(ArrivalsTest, ParetoOnOffIsBurstierThanPoisson) {
  // Coefficient of variation of per-period counts: the self-similar
  // construction must exceed Poisson's.
  const util::SimTime duration = util::SimTime::minutes(60);
  const util::SimTime period = util::SimTime::seconds(20);
  const auto cv_of = [&](ArrivalKind kind, int sources) {
    const auto model = make_arrival_model(kind, 20.0, sources);
    util::Rng rng(17);
    const auto counts = bucket_times(model->generate(duration, rng), period,
                                     static_cast<std::size_t>(duration /
                                                              period));
    stats::OnlineStats s;
    for (auto c : counts) s.add(static_cast<double>(c));
    return s.cv();
  };
  EXPECT_GT(cv_of(ArrivalKind::kParetoOnOff, 10),
            1.5 * cv_of(ArrivalKind::kPoisson, 10));
}

TEST(ArrivalsTest, DiurnalModulationThinsToExpectedRate) {
  auto inner = std::make_shared<PoissonArrivals>(30.0);
  DiurnalModulation model(inner, 0.5, util::SimTime::hours(1));
  util::Rng rng(19);
  const util::SimTime duration = util::SimTime::hours(2);
  const auto times = model.generate(duration, rng);
  const double measured =
      static_cast<double>(times.size()) / duration.to_seconds();
  EXPECT_NEAR(measured, 20.0, 2.0);  // 30/(1+0.5)
}

TEST(ArrivalsTest, ParameterValidation) {
  EXPECT_THROW(PoissonArrivals{0.0}, std::invalid_argument);
  EXPECT_THROW(MmppArrivals(1.0, 1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(WeibullRenewalArrivals(1.0, 0.0), std::invalid_argument);
  ParetoOnOffArrivals::Params p;
  p.pareto_shape = 1.0;  // infinite mean
  EXPECT_THROW(ParetoOnOffArrivals{p}, std::invalid_argument);
  EXPECT_THROW(DiurnalModulation(nullptr, 0.5, util::SimTime::hours(1)),
               std::invalid_argument);
}

// --- handshake model ------------------------------------------------------------

TEST(HandshakeTest, LossFreeHandshakesAllAnswerWithinRtt) {
  PoissonArrivals arrivals(10.0);
  HandshakeParams params;
  params.no_answer_probability = 0.0;
  util::Rng rng(23);
  const ConnectionTrace trace = generate_trace(
      arrivals, util::SimTime::minutes(5), params, Direction::kOutbound,
      rng);
  ASSERT_GT(trace.attempts(), 0u);
  EXPECT_EQ(trace.total_syns(), trace.attempts());
  EXPECT_EQ(trace.total_syn_acks(), trace.attempts());
  for (const Handshake& hs : trace.handshakes) {
    ASSERT_EQ(hs.syn_times.size(), 1u);
    ASSERT_TRUE(hs.answered());
    const double rtt =
        (*hs.syn_ack_time - hs.syn_times[0]).to_seconds();
    EXPECT_GT(rtt, 0.0);
    EXPECT_LT(rtt, 2.0);  // lognormal around 120 ms
  }
}

TEST(HandshakeTest, RetransmissionsFollowExponentialBackoff) {
  PoissonArrivals arrivals(50.0);
  HandshakeParams params;
  params.no_answer_probability = 0.5;  // force plenty of retransmissions
  util::Rng rng(29);
  const ConnectionTrace trace = generate_trace(
      arrivals, util::SimTime::minutes(2), params, Direction::kOutbound,
      rng);
  bool saw_three = false;
  for (const Handshake& hs : trace.handshakes) {
    ASSERT_LE(hs.syn_times.size(), 3u);  // initial + 2 retx
    if (hs.syn_times.size() == 3) {
      saw_three = true;
      EXPECT_NEAR((hs.syn_times[1] - hs.syn_times[0]).to_seconds(), 3.0,
                  1e-9);
      EXPECT_NEAR((hs.syn_times[2] - hs.syn_times[1]).to_seconds(), 6.0,
                  1e-9);
    }
  }
  EXPECT_TRUE(saw_three);
}

TEST(HandshakeTest, CalibrationFormulas) {
  // Closed forms used to calibrate the sites (DESIGN.md §5).
  EXPECT_DOUBLE_EQ(expected_syns_per_attempt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_syns_per_attempt(0.5), 1.75);
  EXPECT_DOUBLE_EQ(answer_probability(0.5), 1.0 - 0.125);
  EXPECT_NEAR(normalized_difference_mean(0.047), 0.0494, 5e-4);
}

TEST(HandshakeTest, MeasuredStatisticsMatchClosedForms) {
  PoissonArrivals arrivals(100.0);
  HandshakeParams params;
  params.no_answer_probability = 0.1;
  util::Rng rng(31);
  const ConnectionTrace trace = generate_trace(
      arrivals, util::SimTime::minutes(30), params, Direction::kOutbound,
      rng);
  const double syns_per_attempt =
      static_cast<double>(trace.total_syns()) /
      static_cast<double>(trace.attempts());
  const double answered = static_cast<double>(trace.total_syn_acks()) /
                          static_cast<double>(trace.attempts());
  EXPECT_NEAR(syns_per_attempt, expected_syns_per_attempt(0.1), 0.01);
  EXPECT_NEAR(answered, answer_probability(0.1), 0.01);
}

TEST(HandshakeTest, MergePreservesOrderAndCounts) {
  PoissonArrivals arrivals(5.0);
  HandshakeParams params;
  util::Rng rng_a(1);
  util::Rng rng_b(2);
  ConnectionTrace a = generate_trace(arrivals, util::SimTime::minutes(5),
                                     params, Direction::kOutbound, rng_a);
  ConnectionTrace b = generate_trace(arrivals, util::SimTime::minutes(5),
                                     params, Direction::kInbound, rng_b);
  const std::size_t total = a.attempts() + b.attempts();
  const ConnectionTrace merged = merge_traces(std::move(a), std::move(b));
  EXPECT_EQ(merged.attempts(), total);
  EXPECT_TRUE(std::is_sorted(
      merged.handshakes.begin(), merged.handshakes.end(),
      [](const Handshake& x, const Handshake& y) {
        return x.first_syn() < y.first_syn();
      }));
}

TEST(HandshakeTest, MergeRejectsDurationMismatch) {
  ConnectionTrace a;
  a.duration = util::SimTime::minutes(5);
  ConnectionTrace b;
  b.duration = util::SimTime::minutes(6);
  EXPECT_THROW((void)merge_traces(std::move(a), std::move(b)),
               std::invalid_argument);
}

// --- LossProcess ------------------------------------------------------------------

TEST(LossProcessTest, WindowsElevateProbability) {
  LossProcess loss(0.05);
  loss.add_window(util::SimTime::seconds(10), util::SimTime::seconds(5),
                  0.6);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(9)), 0.05);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(10)), 0.6);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(14)), 0.6);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(15)), 0.05);
}

TEST(LossProcessTest, OverlappingWindowsTakeMax) {
  LossProcess loss(0.0);
  loss.add_window(util::SimTime::seconds(0), util::SimTime::seconds(10),
                  0.3);
  loss.add_window(util::SimTime::seconds(5), util::SimTime::seconds(10),
                  0.7);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(7)), 0.7);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(2)), 0.3);
  EXPECT_DOUBLE_EQ(loss.at(util::SimTime::seconds(12)), 0.7);
}

TEST(LossProcessTest, RandomDisruptionsRespectCap) {
  util::Rng rng(37);
  const LossProcess loss = LossProcess::with_random_disruptions(
      0.02, util::SimTime::hours(10), 6.0, 30.0, 0.5, rng, 40.0);
  EXPECT_GT(loss.window_count(), 10u);
  // The cap bounds each window: no 60-second stretch can be fully
  // elevated.
  int consecutive = 0;
  for (int s = 0; s < 36000; ++s) {
    if (loss.at(util::SimTime::seconds(s)) > 0.4) {
      ++consecutive;
      ASSERT_LE(consecutive, 41);
    } else {
      consecutive = 0;
    }
  }
}

// --- periods ---------------------------------------------------------------------

TEST(PeriodsTest, CountsConserveTraceTotals) {
  const SiteSpec spec = site_spec(SiteId::kHarvard);
  const ConnectionTrace trace = generate_site_trace(spec, 7);
  const PeriodSeries ps = extract_periods(trace, kObservationPeriod);
  EXPECT_EQ(ps.size(), 90u);  // 30 min / 20 s

  std::int64_t syn_total = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    syn_total += ps.out_syn[i] + ps.in_syn[i];
  }
  // Retransmissions can fall past the capture end; totals match within
  // that clipping.
  EXPECT_LE(syn_total, static_cast<std::int64_t>(trace.total_syns()));
  EXPECT_GT(syn_total, static_cast<std::int64_t>(trace.total_syns() * 0.99));
}

TEST(PeriodsTest, DirectionsLandInTheRightCounters) {
  ConnectionTrace trace;
  trace.duration = util::SimTime::seconds(60);
  Handshake out;
  out.direction = Direction::kOutbound;
  out.syn_times = {util::SimTime::seconds(5)};
  out.syn_ack_time = util::SimTime::seconds(25);
  Handshake in;
  in.direction = Direction::kInbound;
  in.syn_times = {util::SimTime::seconds(45)};
  in.syn_ack_time = util::SimTime::seconds(45) +
                    util::SimTime::milliseconds(50);
  trace.handshakes = {out, in};

  const PeriodSeries ps = extract_periods(trace, util::SimTime::seconds(20));
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.out_syn[0], 1);
  EXPECT_EQ(ps.in_syn_ack[1], 1);  // answered in the next period
  EXPECT_EQ(ps.in_syn[2], 1);
  EXPECT_EQ(ps.out_syn_ack[2], 1);
  EXPECT_EQ(ps.syn_both_directions()[0], 1);
  EXPECT_EQ(ps.syn_ack_both_directions()[2], 1);
}

TEST(PeriodsTest, EventsOutsideCaptureAreDropped) {
  ConnectionTrace trace;
  trace.duration = util::SimTime::seconds(40);
  Handshake late;
  late.direction = Direction::kOutbound;
  late.syn_times = {util::SimTime::seconds(39)};
  late.syn_ack_time = util::SimTime::seconds(41);  // after capture end
  trace.handshakes = {late};
  const PeriodSeries ps = extract_periods(trace, util::SimTime::seconds(20));
  EXPECT_EQ(ps.out_syn[1], 1);
  EXPECT_EQ(ps.in_syn_ack[0] + ps.in_syn_ack[1], 0);
}

TEST(PeriodsTest, AddOutboundSynsValidatesSize) {
  PeriodSeries ps;
  ps.out_syn = {1, 2, 3};
  EXPECT_THROW(ps.add_outbound_syns({1, 2}), std::invalid_argument);
}

TEST(PeriodsTest, BucketTimesClipsAndCounts) {
  const std::vector<util::SimTime> times = {
      util::SimTime::seconds(1), util::SimTime::seconds(19),
      util::SimTime::seconds(20), util::SimTime::seconds(999)};
  const auto counts = bucket_times(times, util::SimTime::seconds(20), 2);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);  // 999 s clipped
}

// --- site presets -----------------------------------------------------------------

class SiteCalibrationTest : public ::testing::TestWithParam<SiteId> {};

TEST_P(SiteCalibrationTest, MatchesCalibrationTargets) {
  const SiteSpec spec = site_spec(GetParam());
  const ConnectionTrace trace = generate_site_trace(spec, 42);
  const PeriodSeries ps = extract_periods(trace, kObservationPeriod);

  stats::OnlineStats k;
  double delta = 0;
  double acks = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    k.add(static_cast<double>(ps.in_syn_ack[i]));
    delta += static_cast<double>(ps.out_syn[i] - ps.in_syn_ack[i]);
    acks += static_cast<double>(ps.in_syn_ack[i]);
  }
  EXPECT_NEAR(k.mean(), spec.expected_syn_ack_per_period,
              spec.expected_syn_ack_per_period * 0.12);
  EXPECT_NEAR(delta / acks, spec.expected_c, 0.02);
}

TEST_P(SiteCalibrationTest, DeterministicInSeed) {
  const SiteSpec spec = site_spec(GetParam());
  const ConnectionTrace a = generate_site_trace(spec, 5);
  const ConnectionTrace b = generate_site_trace(spec, 5);
  ASSERT_EQ(a.attempts(), b.attempts());
  EXPECT_EQ(a.total_syns(), b.total_syns());
  EXPECT_EQ(a.total_syn_acks(), b.total_syn_acks());
  const ConnectionTrace c = generate_site_trace(spec, 6);
  EXPECT_NE(a.total_syns(), c.total_syns());
}

INSTANTIATE_TEST_SUITE_P(AllSites, SiteCalibrationTest,
                         ::testing::Values(SiteId::kLbl, SiteId::kHarvard,
                                           SiteId::kUnc,
                                           SiteId::kAuckland),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SiteTest, SynAndSynAckStronglyCorrelated) {
  // The core empirical observation of paper §4.1.
  for (const SiteId id :
       {SiteId::kHarvard, SiteId::kUnc, SiteId::kAuckland}) {
    const SiteSpec spec = site_spec(id);
    const ConnectionTrace trace = generate_site_trace(spec, 21);
    const PeriodSeries ps = extract_periods(trace, kObservationPeriod);
    const double corr = stats::pearson_correlation(
        PeriodSeries::to_double(ps.out_syn),
        PeriodSeries::to_double(ps.in_syn_ack));
    EXPECT_GT(corr, 0.9) << to_string(id);
  }
}

// --- rendering -------------------------------------------------------------------

TEST(RenderTest, PacketsMatchTraceEvents) {
  SiteSpec spec = site_spec(SiteId::kLbl);
  spec.inbound_rate = 0.0;  // outbound only, for exact accounting
  const ConnectionTrace trace = generate_site_trace(spec, 3);
  RenderConfig cfg;
  cfg.emit_final_ack = false;
  const std::vector<TimedPacket> packets = render_trace(trace, cfg);

  std::size_t syns = 0;
  std::size_t syn_acks = 0;
  for (const TimedPacket& tp : packets) {
    if (tp.packet.is_syn()) {
      ++syns;
      EXPECT_TRUE(cfg.stub_prefix.contains(tp.packet.ip.src));
      EXPECT_FALSE(cfg.stub_prefix.contains(tp.packet.ip.dst));
      EXPECT_EQ(tp.packet.eth.dst, cfg.router_mac);
    } else if (tp.packet.is_syn_ack()) {
      ++syn_acks;
      EXPECT_TRUE(cfg.stub_prefix.contains(tp.packet.ip.dst));
    }
  }
  EXPECT_EQ(syns, trace.total_syns());
  EXPECT_EQ(syn_acks, trace.total_syn_acks());
  EXPECT_TRUE(std::is_sorted(packets.begin(), packets.end(),
                             [](const TimedPacket& a, const TimedPacket& b) {
                               return a.at < b.at;
                             }));
}

TEST(RenderTest, FinalAckCompletesHandshake) {
  SiteSpec spec = site_spec(SiteId::kLbl);
  spec.inbound_rate = 0.0;
  const ConnectionTrace trace = generate_site_trace(spec, 3);
  RenderConfig cfg;
  const std::vector<TimedPacket> packets = render_trace(trace, cfg);
  std::size_t acks = 0;
  for (const TimedPacket& tp : packets) {
    if (tp.packet.tcp && tp.packet.tcp->flags == net::TcpFlags::ack_only()) {
      ++acks;
    }
  }
  EXPECT_EQ(acks, trace.total_syn_acks());
}

TEST(RenderTest, AttackPacketsAreSpoofedPureSyns) {
  AttackRenderConfig cfg;
  cfg.attacker_hosts = {7, 9};
  const std::vector<util::SimTime> times = {
      util::SimTime::seconds(1), util::SimTime::seconds(2),
      util::SimTime::seconds(3)};
  const std::vector<TimedPacket> packets = render_attack(times, cfg);
  ASSERT_EQ(packets.size(), 3u);
  for (const TimedPacket& tp : packets) {
    EXPECT_TRUE(tp.packet.is_syn());
    EXPECT_TRUE(cfg.spoof_pool.contains(tp.packet.ip.src));
    EXPECT_EQ(tp.packet.ip.dst, cfg.victim);
    const bool from_attacker =
        tp.packet.eth.src == net::MacAddress::for_host(7) ||
        tp.packet.eth.src == net::MacAddress::for_host(9);
    EXPECT_TRUE(from_attacker);
  }
}

TEST(RenderTest, MergeInterleavesByTime) {
  AttackRenderConfig cfg;
  auto a = render_attack({util::SimTime::seconds(1),
                          util::SimTime::seconds(5)}, cfg);
  auto b = render_attack({util::SimTime::seconds(3)}, cfg);
  const auto merged = merge_packets(std::move(a), std::move(b));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].at, util::SimTime::seconds(3));
}

}  // namespace
}  // namespace syndog::trace
