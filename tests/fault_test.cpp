// Fault-injection subsystem tests: schedule validation, the no-op
// guarantee of an empty schedule, each fault kind end to end through the
// DES, and the agent's graceful-degradation machinery (gap accounting,
// SYN/ACK-collapse gating, tap-outage quarantine, stalled timers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/fault/chaos.hpp"
#include "syndog/fault/schedule.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/util/rng.hpp"

namespace syndog {
namespace {

using fault::FaultKind;
using fault::FaultSchedule;
using fault::FaultSpec;
using fault::FaultTarget;
using util::SimTime;

constexpr double kT0Seconds = 20.0;

/// Poisson outbound background at `rate` conn/s for `minutes` minutes.
std::vector<SimTime> background_starts(double rate, int minutes,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SimTime> starts;
  double t = 0.0;
  while (t < minutes * 60.0) {
    t += rng.exponential_mean(1.0 / rate);
    starts.push_back(SimTime::from_seconds(t));
  }
  return starts;
}

/// A small live site: 3 conn/s from 10 hosts, ~57 SYN/ACKs per period.
sim::StubNetworkParams small_site_params() {
  sim::StubNetworkParams params;
  params.num_hosts = 10;
  params.cloud.no_answer_probability = 0.05;
  params.seed = 21;
  return params;
}

// --- schedule validation ----------------------------------------------------

TEST(FaultScheduleTest, BuildersValidate) {
  FaultSchedule sched;
  sched.link_flap(FaultTarget::kDownlink, SimTime::seconds(10),
                  SimTime::seconds(20))
      .burst_loss(FaultTarget::kUplink, SimTime::seconds(5),
                  SimTime::seconds(30), 0.2)
      .duplication(FaultTarget::kDownlink, SimTime::zero(),
                   SimTime::seconds(1), 0.5)
      .delay_jitter(FaultTarget::kDownlink, SimTime::zero(),
                    SimTime::seconds(1), SimTime::milliseconds(50))
      .tap_outage(SimTime::seconds(40), SimTime::seconds(60))
      .asymmetric_route(SimTime::seconds(40), SimTime::seconds(60), 0.3);
  EXPECT_EQ(sched.size(), 6u);
  EXPECT_FALSE(sched.empty());

  // Empty window.
  EXPECT_THROW(FaultSchedule{}.link_flap(FaultTarget::kUplink,
                                         SimTime::seconds(5),
                                         SimTime::seconds(5)),
               std::invalid_argument);
  // Probability outside (0,1].
  EXPECT_THROW(FaultSchedule{}.burst_loss(FaultTarget::kUplink,
                                          SimTime::zero(),
                                          SimTime::seconds(1), 1.5),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule{}.duplication(FaultTarget::kUplink,
                                           SimTime::zero(),
                                           SimTime::seconds(1), 0.0),
               std::invalid_argument);
  // Jitter without a bound.
  FaultSpec bad;
  bad.kind = FaultKind::kDelayJitter;
  bad.end = SimTime::seconds(1);
  EXPECT_THROW(FaultSchedule{}.add(bad), std::invalid_argument);
  // Router fault aimed at a link and vice versa.
  FaultSpec tap;
  tap.kind = FaultKind::kTapOutage;
  tap.target = FaultTarget::kDownlink;
  tap.end = SimTime::seconds(1);
  EXPECT_THROW(FaultSchedule{}.add(tap), std::invalid_argument);
  FaultSpec flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.target = FaultTarget::kRouter;
  flap.end = SimTime::seconds(1);
  EXPECT_THROW(FaultSchedule{}.add(flap), std::invalid_argument);
}

// --- empty schedule is a strict no-op ---------------------------------------

struct ScenarioResult {
  std::vector<core::PeriodReport> history;
  std::uint64_t uplink_delivered = 0;
  std::uint64_t downlink_delivered = 0;
  std::uint64_t out_sniffed = 0;
  std::uint64_t in_sniffed = 0;
};

ScenarioResult run_scenario(bool with_empty_controller) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  std::optional<fault::ChaosController> chaos;
  if (with_empty_controller) {
    chaos.emplace(network, FaultSchedule{}, 99);
    EXPECT_FALSE(chaos->attached());
  }
  network.schedule_outbound_background(background_starts(3.0, 6, 33));
  network.run_until(SimTime::minutes(6));
  ScenarioResult r;
  r.history = agent.history();
  r.uplink_delivered = network.uplink().delivered();
  r.downlink_delivered = network.downlink().delivered();
  r.out_sniffed = agent.outbound_sniffer().lifetime_count();
  r.in_sniffed = agent.inbound_sniffer().lifetime_count();
  return r;
}

TEST(ChaosControllerTest, EmptyScheduleChangesNothing) {
  const ScenarioResult base = run_scenario(false);
  const ScenarioResult chaos = run_scenario(true);
  ASSERT_EQ(base.history.size(), chaos.history.size());
  for (std::size_t i = 0; i < base.history.size(); ++i) {
    EXPECT_EQ(base.history[i].syn_count, chaos.history[i].syn_count) << i;
    EXPECT_EQ(base.history[i].syn_ack_count, chaos.history[i].syn_ack_count)
        << i;
    EXPECT_EQ(base.history[i].y, chaos.history[i].y) << i;
  }
  EXPECT_EQ(base.uplink_delivered, chaos.uplink_delivered);
  EXPECT_EQ(base.downlink_delivered, chaos.downlink_delivered);
  EXPECT_EQ(base.out_sniffed, chaos.out_sniffed);
  EXPECT_EQ(base.in_sniffed, chaos.in_sniffed);
}

// --- link flap: transient outage must not alarm ----------------------------

TEST(ChaosControllerTest, ThreePeriodLinkFlapWithoutAttackNeverAlarms) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  // Downlink dead for exactly 3 observation periods, aligned to the
  // period grid: SYN/ACKs vanish while outgoing SYNs continue.
  FaultSchedule sched;
  sched.link_flap(FaultTarget::kDownlink, SimTime::seconds(120),
                  SimTime::seconds(180));
  fault::ChaosController chaos(network, std::move(sched), 7);
  network.schedule_outbound_background(background_starts(3.0, 10, 33));
  network.run_until(SimTime::minutes(10));

  EXPECT_FALSE(agent.ever_alarmed());
  // The flapped periods were gap-accounted, not fed as fake evidence.
  EXPECT_GE(agent.detector().gap_periods(), 2);
  EXPECT_LE(agent.detector().gap_periods(), 4);
  EXPECT_GT(network.downlink().dropped_link_down(), 0u);
  // The agent degraded during the flap and healed afterwards.
  EXPECT_EQ(agent.health(), core::AgentHealth::kHealthy);
  // Gap periods are absent from the fed history but the indices advance.
  const auto& hist = agent.history();
  ASSERT_FALSE(hist.empty());
  EXPECT_EQ(hist.back().period_index + 1,
            agent.detector().periods_observed());
}

// --- sustained loss: detection must survive a degraded first mile -----------

TEST(ChaosControllerTest, DetectsFloodThroughSustainedTwentyPercentLoss) {
  sim::StubNetworkParams params = small_site_params();
  sim::StubNetworkSim network(params);
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  FaultSchedule sched;
  sched.burst_loss(FaultTarget::kDownlink, SimTime::zero(),
                   SimTime::minutes(12), 0.2);
  fault::ChaosController chaos(network, std::move(sched), 7);
  network.schedule_outbound_background(background_starts(3.0, 12, 33));

  // Table-2 floor-rate flood (37 SYN/s) from host 4, starting at min 6.
  attack::FloodSpec flood;
  flood.rate = 37.0;
  flood.start = SimTime::minutes(6);
  flood.duration = SimTime::minutes(6);
  util::Rng flood_rng(41);
  network.launch_flood(4, attack::generate_flood_times(flood, flood_rng),
                       net::Ipv4Address(198, 51, 100, 7), 80,
                       *net::Ipv4Prefix::parse("203.0.113.0/24"));
  network.run_until(SimTime::minutes(12));

  ASSERT_TRUE(agent.ever_alarmed());
  const std::int64_t onset =
      static_cast<std::int64_t>(6 * 60 / kT0Seconds);
  EXPECT_GE(agent.first_alarm_period(), onset);
  EXPECT_LE(agent.first_alarm_period(), onset + 6);
  for (const core::PeriodReport& r : agent.history()) {
    if (r.period_index < onset) {
      EXPECT_FALSE(r.alarm) << "false alarm at period " << r.period_index;
    }
  }
  EXPECT_GT(network.downlink().dropped_chaos_loss(), 0u);
}

// --- duplication + jitter: noisy but benign --------------------------------

TEST(ChaosControllerTest, DuplicationAndJitterDoNotFalseAlarm) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  FaultSchedule sched;
  sched.duplication(FaultTarget::kDownlink, SimTime::minutes(2),
                    SimTime::minutes(6), 0.15);
  sched.delay_jitter(FaultTarget::kDownlink, SimTime::minutes(2),
                     SimTime::minutes(6), SimTime::milliseconds(200));
  fault::ChaosController chaos(network, std::move(sched), 7);
  network.schedule_outbound_background(background_starts(3.0, 8, 33));
  network.run_until(SimTime::minutes(8));

  // Duplicated SYN/ACKs only push Δn further negative; the clamp keeps
  // that from banking credit, and no alarm may fire either way.
  EXPECT_FALSE(agent.ever_alarmed());
  EXPECT_GT(network.downlink().duplicated(), 0u);
  EXPECT_GT(network.downlink().delayed(), 0u);
  for (const core::PeriodReport& r : agent.history()) {
    ASSERT_TRUE(std::isfinite(r.x));
    ASSERT_TRUE(std::isfinite(r.y));
  }
}

// --- tap outage: blind periods, quarantine, recovery ------------------------

TEST(ChaosControllerTest, TapOutageIsGapAccountedAndQuarantined) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  obs::Registry registry;
  agent.attach_observer(registry);

  FaultSchedule sched;
  sched.tap_outage(SimTime::seconds(120), SimTime::seconds(160));
  fault::ChaosController chaos(network, std::move(sched), 7);
  int outage_edges = 0;
  chaos.set_outage_listener([&agent, &outage_edges](SimTime, bool active) {
    ++outage_edges;
    agent.notify_sniffer_outage(active);
  });
  network.schedule_outbound_background(background_starts(3.0, 8, 33));

  bool saw_blind = false;
  network.scheduler().schedule_at(SimTime::seconds(130), [&] {
    saw_blind = agent.health() == core::AgentHealth::kBlind;
  });
  network.run_until(SimTime::minutes(8));

  EXPECT_TRUE(saw_blind);
  EXPECT_FALSE(agent.ever_alarmed());
  // Three rollovers overlap the outage: the window-open edge fires just
  // before the t=120 rollover (earlier insertion wins the tie), and the
  // rollover after the window closes discards its partial harvest too.
  EXPECT_EQ(agent.blind_periods(), 3);
  EXPECT_EQ(agent.recoveries(), 1);
  EXPECT_GE(agent.detector().gap_periods(), 3);
  EXPECT_EQ(agent.quarantine_remaining(), 0);
  EXPECT_EQ(agent.health(), core::AgentHealth::kHealthy);
  EXPECT_GT(network.router().stats().tap_suppressed, 0u);

  // Both outage edges reached the listener, and the health transitions
  // were counted (-> blind, -> degraded, -> healthy).
  EXPECT_EQ(outage_edges, 2);
  EXPECT_EQ(registry.counter("agent.health_transitions").value(), 3u);
}

// --- asymmetric routing: tolerated below the drift budget -------------------

TEST(ChaosControllerTest, MildAsymmetricRoutingIsToleratedAndCounted) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  FaultSchedule sched;
  sched.asymmetric_route(SimTime::minutes(2), SimTime::minutes(8), 0.1);
  fault::ChaosController chaos(network, std::move(sched), 7);
  network.schedule_outbound_background(background_starts(3.0, 8, 33));
  network.run_until(SimTime::minutes(8));

  // 10% of returning SYN/ACKs dodge the monitored interface: a steady
  // +0.1 drift on Xn, well inside the paper's a = 0.35 budget.
  EXPECT_FALSE(agent.ever_alarmed());
  EXPECT_GT(chaos.diverted_syn_acks(), 0u);
  EXPECT_EQ(network.router().stats().inbound_tap_bypassed,
            chaos.diverted_syn_acks());
}

// --- stalled period timer ---------------------------------------------------

TEST(SynDogAgentTest, StalledTimerIsGapAccountedAndRescaled) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());
  network.schedule_outbound_background(background_starts(3.0, 8, 33));
  // Suspend the agent process across 3.5 periods: the first rollover only
  // happens at t = 70 s.
  agent.stall_until(SimTime::seconds(70));
  network.run_until(SimTime::minutes(8));

  EXPECT_FALSE(agent.ever_alarmed());
  EXPECT_EQ(agent.detector().gap_periods(), 3);
  ASSERT_FALSE(agent.history().empty());
  // The smeared harvest was rescaled to one period's worth, so the first
  // fed report is the same order of magnitude as a normal period.
  const core::PeriodReport& first = agent.history().front();
  EXPECT_EQ(first.period_index, 3);
  EXPECT_LT(first.syn_count, 2 * 3 * 20);  // ~60/period, not ~210
  for (const core::PeriodReport& r : agent.history()) {
    ASSERT_TRUE(std::isfinite(r.x));
    ASSERT_TRUE(std::isfinite(r.y));
  }
  EXPECT_EQ(agent.health(), core::AgentHealth::kHealthy);
}

// --- randomized health-machine sequences ------------------------------------

TEST(SynDogAgentTest, RandomSequencesKeepTheHealthInvariants) {
  // The agent runs on a scheduler that never runs, as in ShardedReplay's
  // merge, so every period closes through close_period. Periods come in
  // runs of one regime (quiet, flooding, SYN/ACK-collapsed), some late,
  // with sniffer-outage edges (and repeated, no-op ones) in between.
  enum class Regime { kQuiet, kFlood, kCollapse };
  const core::AgentHealthPolicy policy;
  const SimTime t0 = core::SynDogParams::paper_defaults().observation_period;
  std::int64_t total_fired = 0;
  std::int64_t total_suppressed = 0;
  std::int64_t total_recoveries = 0;
  std::int64_t longest_quarantine = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    sim::Scheduler clock;
    std::int64_t fired = 0;
    core::SynDogAgent agent(*net::Ipv4Prefix::parse("10.1.0.0/16"), clock,
                            core::SynDogParams::paper_defaults(),
                            [&fired](const core::AlarmEvent&) { ++fired; });
    std::int64_t recoveries = 0;
    const auto check = [&] {
      const std::vector<core::PeriodReport>& history = agent.history();
      ASSERT_EQ(agent.detector().periods_observed(),
                static_cast<std::int64_t>(history.size()) +
                    agent.detector().gap_periods());
      const auto alarming = std::count_if(
          history.begin(), history.end(),
          [](const core::PeriodReport& r) { return r.alarm; });
      ASSERT_EQ(fired + agent.suppressed_alarm_periods(), alarming);
      if (agent.recoveries() > recoveries) {
        ASSERT_GE(agent.quarantine_remaining(), policy.quarantine_initial);
        ASSERT_LE(agent.quarantine_remaining(), policy.quarantine_max);
        longest_quarantine =
            std::max(longest_quarantine, agent.quarantine_remaining());
      }
      recoveries = agent.recoveries();
    };

    Regime regime = Regime::kQuiet;
    bool outage = false;
    SimTime at = SimTime::zero();
    for (int step = 0; step < 400; ++step) {
      if (rng.bernoulli(outage ? 0.3 : 0.05)) {
        outage = !outage;
        agent.notify_sniffer_outage(outage);
        ASSERT_NO_FATAL_FAILURE(check());
      }
      if (rng.bernoulli(0.02)) {
        agent.notify_sniffer_outage(outage);
        ASSERT_NO_FATAL_FAILURE(check());
      }
      if (rng.bernoulli(0.2)) {
        const double pick = rng.uniform();
        regime = pick < 0.5   ? Regime::kQuiet
                 : pick < 0.8 ? Regime::kFlood
                              : Regime::kCollapse;
      }
      const std::int64_t base = rng.uniform_int(40, 80);
      std::int64_t syns = base;
      std::int64_t syn_acks = base - rng.uniform_int(0, base / 10);
      if (regime == Regime::kFlood) syns += rng.uniform_int(30, 200);
      if (regime == Regime::kCollapse) syn_acks = rng.uniform_int(0, 1);
      const std::int64_t missed = rng.bernoulli(0.1) ? rng.uniform_int(1, 3)
                                                     : 0;
      at = at + t0 * (missed + 1);
      agent.close_period(at, syns, syn_acks, missed);
      ASSERT_NO_FATAL_FAILURE(check());
    }
    total_fired += fired;
    total_suppressed += agent.suppressed_alarm_periods();
    total_recoveries += agent.recoveries();
  }
  // The sequences reach every branch the invariants speak about: live and
  // withheld alarms, recoveries, and a backed-off quarantine.
  EXPECT_GT(total_fired, 0);
  EXPECT_GT(total_suppressed, 0);
  EXPECT_GT(total_recoveries, 0);
  EXPECT_GT(longest_quarantine, policy.quarantine_initial);
}

}  // namespace
}  // namespace syndog
