// Failure-injection and degenerate-condition tests: corrupted frames
// through the full agent path, idle and dead links, extreme counts, and
// the GLR comparator's unknown-shift detection.
#include <gtest/gtest.h>

#include "syndog/core/agent.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/detect/glr.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/util/rng.hpp"

namespace syndog {
namespace {

using util::SimTime;

// --- GLR ------------------------------------------------------------------------

TEST(GlrTest, QuietOnNoise) {
  detect::GlrDetector glr(detect::GlrParams{0.05, 0.05, 60, 12.0});
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_FALSE(glr.update(rng.normal(0.05, 0.05)).alarm) << i;
  }
}

TEST(GlrTest, DetectsShiftOfUnknownSizeAndLocatesIt) {
  detect::GlrDetector glr(detect::GlrParams{0.0, 0.1, 60, 12.0});
  util::Rng rng(2);
  for (int i = 0; i < 300; ++i) (void)glr.update(rng.normal(0.0, 0.1));
  int steps = 0;
  // A shift CUSUM-with-h=0.7 would be tuned for is 0.7; give GLR a much
  // smaller one it was never parameterized for.
  while (!glr.update(rng.normal(0.25, 0.1)).alarm) {
    ++steps;
    ASSERT_LT(steps, 100);
  }
  EXPECT_LT(steps, 20);
  // The maximizing change point should be near the true onset.
  EXPECT_NEAR(glr.change_point_age(), steps + 1, 4);
}

TEST(GlrTest, WindowBoundsWorkAndReset) {
  detect::GlrDetector glr(detect::GlrParams{0.0, 1.0, 4, 1000.0});
  for (int i = 0; i < 100; ++i) (void)glr.update(5.0);
  // With window 4 the statistic is bounded by (4*5)^2 / (2*1*4) = 50.
  EXPECT_LE(glr.statistic(), 50.0 + 1e-9);
  glr.reset();
  EXPECT_EQ(glr.statistic(), 0.0);
  EXPECT_EQ(glr.change_point_age(), 0);
  EXPECT_THROW(detect::GlrDetector(detect::GlrParams{0, 0.0, 60, 12}),
               std::invalid_argument);
  EXPECT_THROW(detect::GlrDetector(detect::GlrParams{0, 1.0, 1, 12}),
               std::invalid_argument);
}

// --- corrupted traffic through the agent ------------------------------------------

TEST(FailureInjectionTest, CorruptFramesNeverPerturbTheDetector) {
  // Feed the sniffer a mix of valid SYNs and mutilated garbage the way
  // the capture path does (decode, then count the decoded packet); only
  // the valid SYNs may count.
  core::Sniffer sniffer(core::SnifferRole::kOutbound);
  const auto capture = [&sniffer](const net::ByteBuffer& frame) {
    net::Packet pkt;
    if (net::decode_frame_into(frame, pkt)) sniffer.on_packet(pkt);
  };
  util::Rng rng(3);
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  const net::ByteBuffer valid = net::encode_frame(net::make_syn(spec));

  std::uint64_t injected_valid = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.3)) {
      capture(valid);
      ++injected_valid;
    } else {
      net::ByteBuffer garbage(
          static_cast<std::size_t>(rng.uniform_int(0, 80)));
      for (auto& b : garbage) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      capture(garbage);
    }
  }
  EXPECT_EQ(sniffer.lifetime_count(), injected_valid);
}

TEST(FailureInjectionTest, AgentSurvivesNonIpAndFragmentStorm) {
  sim::StubNetworkParams params;
  params.num_hosts = 2;
  sim::StubNetworkSim network(params);
  // Trace-driven: a sink uplink keeps the cloud from answering replayed
  // packets (the trace already holds the reverse direction).
  network.router().set_uplink([](const net::Packet&) {});
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());

  util::Rng rng(5);
  // A storm of fragmented pseudo-TCP packets leaving the stub: none may
  // be counted (no readable flags), so no alarm can arise.
  for (int i = 0; i < 2000; ++i) {
    net::TcpPacketSpec spec;
    spec.src_ip = params.stub_prefix.host(1);
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
    spec.flags = net::TcpFlags::syn_only();
    net::Packet pkt = net::make_tcp_packet(spec);
    pkt.ip.frag_flags_offset = static_cast<std::uint16_t>(
        rng.uniform_int(1, net::Ipv4Header::kFragOffsetMask));
    network.replay_at_router(SimTime::milliseconds(10 * i), pkt);
  }
  network.run_until(SimTime::minutes(2));
  EXPECT_FALSE(agent.ever_alarmed());
  EXPECT_EQ(agent.outbound_sniffer().lifetime_count(), 0u);
  EXPECT_GT(agent.outbound_sniffer().packets_seen(), 0u);
}

// --- degenerate traffic conditions ----------------------------------------------

TEST(FailureInjectionTest, IdleSiteNeverDividesByZeroOrAlarms) {
  core::SynDog dog(core::SynDogParams::paper_defaults());
  for (int n = 0; n < 1000; ++n) {
    const core::PeriodReport r = dog.observe_period(0, 0);
    ASSERT_FALSE(r.alarm);
    ASSERT_EQ(r.x, 0.0);
    ASSERT_EQ(r.y, 0.0);
  }
  // A lone SYN on a dead link is suspicious in the raw-count sense but
  // must not trip the threshold by itself (x = 1 - a accumulates only
  // 0.65 per such period).
  EXPECT_FALSE(dog.observe_period(1, 0).alarm);
  EXPECT_TRUE(dog.observe_period(10, 0).alarm);  // a 10-SYN burst does
}

TEST(FailureInjectionTest, NegativeDeltaIsClampedNotBanked) {
  // A fault (post-outage SYN/ACK burst, duplication) can yield SYNACK >>
  // SYN in one period. yn = max(0, ...) absorbs one such step, but the
  // clamp must also stop the EWMA-normalized Xn from being absurd, and
  // the report must say the clamp fired.
  core::SynDogParams params = core::SynDogParams::paper_defaults();
  core::SynDog dog(params);
  for (int n = 0; n < 20; ++n) (void)dog.observe_period(100, 95);
  const core::PeriodReport clamped = dog.observe_period(100, 5000);
  EXPECT_TRUE(clamped.x_clamped);
  EXPECT_DOUBLE_EQ(clamped.x, -params.x_clamp_negative);
  EXPECT_EQ(clamped.y, 0.0);

  // Paper-exact mode (clamp disabled) still exists for the benches.
  params.x_clamp_negative = 0.0;
  core::SynDog raw(params);
  for (int n = 0; n < 20; ++n) (void)raw.observe_period(100, 95);
  const core::PeriodReport unclamped = raw.observe_period(100, 5000);
  EXPECT_FALSE(unclamped.x_clamped);
  EXPECT_LT(unclamped.x, -40.0);
  EXPECT_EQ(unclamped.y, 0.0);  // max(0, ·) already floors the statistic

  // Validation: a negative clamp is rejected.
  params.x_clamp_negative = -1.0;
  EXPECT_THROW(core::SynDog{params}, std::invalid_argument);
}

TEST(FailureInjectionTest, IdleDecayRidesKFloorWithoutNanOrAlarm) {
  // A live site that goes fully idle: K decays geometrically toward 0 and
  // the kKFloor path takes over. Thousands of idle periods must produce
  // no NaN/Inf, no alarm, and no drift in yn.
  core::SynDog dog(core::SynDogParams::paper_defaults());
  for (int n = 0; n < 50; ++n) (void)dog.observe_period(2000, 1950);
  for (int n = 0; n < 5000; ++n) {
    const core::PeriodReport r = dog.observe_period(0, 0);
    ASSERT_TRUE(std::isfinite(r.x)) << n;
    ASSERT_TRUE(std::isfinite(r.y)) << n;
    ASSERT_TRUE(std::isfinite(r.k_estimate)) << n;
    ASSERT_GE(r.k_estimate, 0.0) << n;
    ASSERT_FALSE(r.alarm) << n;
    ASSERT_EQ(r.y, 0.0) << n;
  }
  // The floor keeps a small post-idle burst from dividing by ~0 into an
  // instant alarm, while a real burst still alarms on raw counts.
  EXPECT_FALSE(dog.observe_period(1, 0).alarm);
  EXPECT_TRUE(dog.observe_period(20, 0).alarm);
}

TEST(FailureInjectionTest, RearmKeepsCalibrationButClearsStatistic) {
  core::SynDog dog(core::SynDogParams::paper_defaults());
  for (int n = 0; n < 20; ++n) (void)dog.observe_period(100, 95);
  while (!dog.observe_period(2000, 95).alarm) {
  }
  const double k_before = dog.k();
  const std::int64_t periods_before = dog.periods_observed();
  dog.rearm();
  EXPECT_FALSE(dog.alarmed());
  EXPECT_EQ(dog.y(), 0.0);
  EXPECT_EQ(dog.k(), k_before);
  EXPECT_EQ(dog.periods_observed(), periods_before);

  dog.note_gap_periods(3);
  EXPECT_EQ(dog.periods_observed(), periods_before + 3);
  EXPECT_EQ(dog.gap_periods(), 3);
  EXPECT_THROW(dog.note_gap_periods(-1), std::invalid_argument);
}

TEST(FailureInjectionTest, HugeCountsDoNotOverflow) {
  core::SynDog dog(core::SynDogParams::paper_defaults());
  const std::int64_t big = 1'000'000'000;  // a Tbps-class interface
  for (int n = 0; n < 10; ++n) {
    const core::PeriodReport r = dog.observe_period(big, big - big / 100);
    ASSERT_TRUE(std::isfinite(r.x));
    ASSERT_TRUE(std::isfinite(r.y));
    ASSERT_TRUE(std::isfinite(r.k_estimate));
    ASSERT_FALSE(r.alarm);  // 1% gap is below a = 0.35
  }
}

TEST(FailureInjectionTest, TotalLinkLossLooksLikeAFlood) {
  // If the inbound link dies entirely, every outgoing SYN goes
  // unanswered — indistinguishable from a flood at the counter level,
  // and SYN-dog SHOULD alarm (the operator needs to look either way).
  core::SynDog dog(core::SynDogParams::paper_defaults());
  for (int n = 0; n < 20; ++n) (void)dog.observe_period(2000, 1900);
  int periods = 0;
  while (!dog.observe_period(2000, 0).alarm) {
    ASSERT_LT(++periods, 10);
  }
  EXPECT_LE(periods, 2);
}

TEST(FailureInjectionTest, SchedulerSurvivesEventStorm) {
  sim::Scheduler sched;
  std::uint64_t ran = 0;
  // 200k events in randomized order with cancellations sprinkled in.
  util::Rng rng(7);
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 200000; ++i) {
    ids.push_back(sched.schedule_at(
        SimTime::nanoseconds(rng.uniform_int(0, 1'000'000'000)),
        [&ran] { ++ran; }));
  }
  for (int i = 0; i < 50000; ++i) {
    sched.cancel(ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]);
  }
  sched.run_all();
  EXPECT_GE(ran, 150000u);
  EXPECT_LE(ran, 200000u);
  EXPECT_EQ(sched.pending(), 0u);
}

}  // namespace
}  // namespace syndog
