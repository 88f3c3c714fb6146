// Mitigation subsystem tests: policy validation, the token bucket's DES
// clock, the staged state machine end to end through the simulator
// (hysteresis under a flapping flood, exponential re-arm backoff, probe
// release and probe failure), the empty-policy byte-exact no-op, the
// degraded-evidence veto, the victim-side SYN-cookie mode, and the
// ladder's invariants over seeded random period sequences.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/fault/chaos.hpp"
#include "syndog/fault/schedule.hpp"
#include "syndog/mitigate/controller.hpp"
#include "syndog/mitigate/policy.hpp"
#include "syndog/mitigate/recorder.hpp"
#include "syndog/mitigate/token_bucket.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"

namespace syndog {
namespace {

using mitigate::EdgeReason;
using mitigate::MitigationController;
using mitigate::MitigationPolicy;
using mitigate::MitigationRecorder;
using mitigate::Stage;
using util::SimTime;

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

/// Agent parameters for controller tests: the statistic cap bounds how
/// much alarm mass a flood banks, so release times are a function of the
/// decay rate, not the flood length (same setting as the bench).
core::SynDogParams capped_params() {
  core::SynDogParams params = core::SynDogParams::paper_defaults();
  params.statistic_cap = 2.0;
  return params;
}

/// Schedules a spoofed flood window [start_s, end_s) at 200 SYN/s from
/// stub host 4 toward an off-net victim.
void flood_window(sim::StubNetworkSim& network, double start_s,
                  double end_s, std::uint64_t seed) {
  attack::FloodSpec flood;
  flood.rate = 200.0;
  flood.start = SimTime::from_seconds(start_s);
  flood.duration = SimTime::from_seconds(end_s - start_s);
  util::Rng rng(seed);
  network.launch_flood(4, attack::generate_flood_times(flood, rng),
                       net::Ipv4Address(198, 51, 100, 7), 80,
                       *net::Ipv4Prefix::parse("203.0.113.0/24"));
}

// --- policy validation ------------------------------------------------------

TEST(MitigationPolicyTest, ValidateRejectsBadKnobs) {
  MitigationPolicy p = MitigationPolicy::staged_defaults();
  p.escalate_after = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = MitigationPolicy::staged_defaults();
  p.probe_periods = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  EXPECT_FALSE(MitigationPolicy{}.enabled());
  EXPECT_NO_THROW(MitigationPolicy{}.validate());
  EXPECT_TRUE(MitigationPolicy::staged_defaults().enabled());
}

// --- token bucket -----------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefillOnSimClock) {
  mitigate::TokenBucket bucket(1.0, 4.0, SimTime::zero());
  // The burst allowance drains packet by packet.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.try_consume(SimTime::zero())) << i;
  }
  EXPECT_FALSE(bucket.try_consume(SimTime::zero()));
  // Half a token after 0.5 s is not enough; a full token is.
  EXPECT_FALSE(bucket.try_consume(SimTime::milliseconds(500)));
  EXPECT_TRUE(bucket.try_consume(SimTime::milliseconds(1500)));
  // Refill never exceeds the burst cap.
  EXPECT_TRUE(bucket.try_consume(SimTime::minutes(10)));
  EXPECT_EQ(bucket.tokens(), 3.0);
}

// --- hysteresis: a flapping flood cannot ping-pong the stage ----------------

TEST(MitigationStateMachineTest, FlappingFloodEngagesOnceReleasesOnce) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  MitigationController controller(agent, network.router(),
                                  MitigationPolicy::rate_limit_only());
  MitigationRecorder recorder(controller);
  network.schedule_outbound_background(background_starts(3.0, 10, 33));
  // Three 40 s bursts with 40 s gaps: the statistic never decays below
  // the release threshold (0.5 * N) inside a gap, so the no-alarm
  // periods there must not count toward release.
  flood_window(network, 120.0, 160.0, 41);
  flood_window(network, 200.0, 240.0, 42);
  flood_window(network, 280.0, 320.0, 43);
  network.run_until(SimTime::minutes(10));

  const auto& stats = controller.stats();
  EXPECT_EQ(stats.engagements, 1u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.full_releases, 1u);
  EXPECT_EQ(stats.escalations, 0u);
  EXPECT_EQ(stats.quarantine_entries, 0u);
  ASSERT_EQ(recorder.edges().size(), 2u);
  EXPECT_EQ(recorder.edges()[0].reason, EdgeReason::kEngage);
  EXPECT_EQ(recorder.edges()[1].reason, EdgeReason::kRelease);
  // Fully recovered by the end of the run, with the flood throttled in
  // between (tokens spent) and the release after the last burst.
  EXPECT_FALSE(recorder.mitigating());
  EXPECT_GT(stats.throttled_syns, 0u);
  EXPECT_GT(stats.dropped_attack_syns, 0u);
  ASSERT_TRUE(recorder.fully_released_at().has_value());
  EXPECT_GT(*recorder.fully_released_at(), SimTime::from_seconds(320.0));
}

// --- exponential re-arm backoff ---------------------------------------------

TEST(MitigationStateMachineTest, SecondReleaseWaitsThroughDoubledBackoff) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  MitigationController controller(agent, network.router(),
                                  MitigationPolicy::rate_limit_only());
  MitigationRecorder recorder(controller);
  network.schedule_outbound_background(background_starts(3.0, 14, 33));
  // Identical 40 s bursts; the second starts well after the first full
  // release and well before the backoff multiplier decays.
  flood_window(network, 120.0, 160.0, 41);
  flood_window(network, 400.0, 440.0, 42);
  network.run_until(SimTime::minutes(14));

  EXPECT_EQ(controller.stats().engagements, 2u);
  EXPECT_EQ(controller.stats().full_releases, 2u);
  std::vector<SimTime> releases;
  for (const MitigationController::StageEdge& e : recorder.edges()) {
    if (e.reason == EdgeReason::kRelease) releases.push_back(e.at);
  }
  ASSERT_EQ(releases.size(), 2u);
  // Both bursts bank the same capped statistic, so the decay back to
  // quiet takes the same time — the only difference is the doubled
  // quiet-streak requirement: kReleaseAfter * 2 instead of kReleaseAfter,
  // i.e. three extra observation periods (60 s), give or take the one
  // period the noisy quiet-threshold crossing can shift by.
  const double d1 = (releases[0] - SimTime::from_seconds(160.0)).to_seconds();
  const double d2 = (releases[1] - SimTime::from_seconds(440.0)).to_seconds();
  EXPECT_GE(d2 - d1, 40.0);
  EXPECT_LE(d2 - d1, 80.0);
}

// --- staged release: quarantine exits through a probe period ----------------

TEST(MitigationStateMachineTest, QuarantineReleasesThroughPassingProbe) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  MitigationController controller(agent, network.router(),
                                  MitigationPolicy::staged_defaults());
  MitigationRecorder recorder(controller);
  network.schedule_outbound_background(background_starts(3.0, 12, 33));
  // One long burst: alarm streak walks observe -> rate-limit ->
  // quarantine; after the flood the decay releases it into a probe.
  flood_window(network, 120.0, 220.0, 41);
  network.run_until(SimTime::minutes(12));

  const auto& edges = recorder.edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0].reason, EdgeReason::kEngage);
  EXPECT_EQ(edges[0].to, Stage::kRateLimit);
  EXPECT_EQ(edges[1].reason, EdgeReason::kEscalate);
  EXPECT_EQ(edges[1].to, Stage::kQuarantine);
  EXPECT_EQ(edges[2].reason, EdgeReason::kRelease);
  EXPECT_EQ(edges[2].to, Stage::kRateLimit);  // on probation
  EXPECT_EQ(edges[3].reason, EdgeReason::kProbePassed);
  EXPECT_EQ(edges[3].to, Stage::kObserve);

  // Engagement lands within two observation periods of the onset.
  ASSERT_TRUE(recorder.first_engaged_at().has_value());
  EXPECT_GE(*recorder.first_engaged_at(), SimTime::from_seconds(120.0));
  EXPECT_LE(*recorder.first_engaged_at(), SimTime::from_seconds(160.0));
  ASSERT_TRUE(recorder.first_quarantined_at().has_value());
  ASSERT_TRUE(recorder.fully_released_at().has_value());
  EXPECT_FALSE(recorder.mitigating());
  EXPECT_EQ(controller.stats().engagements, 1u);
  EXPECT_EQ(controller.stats().escalations, 1u);
  EXPECT_EQ(controller.stats().releases, 2u);
}

// --- probe failure: an alarm on probation re-quarantines --------------------

TEST(MitigationStateMachineTest, AlarmDuringProbationFailsTheProbe) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  MitigationPolicy policy = MitigationPolicy::staged_defaults();
  policy.escalate_after = 1;  // reach quarantine in two alarm periods
  policy.probe_periods = 6;   // 120 s probation window
  MitigationController controller(agent, network.router(), policy);
  MitigationRecorder recorder(controller);
  network.schedule_outbound_background(background_starts(3.0, 14, 33));
  // Burst A escalates into quarantine; after the decay the release puts
  // the source on probation, and burst B lands inside that window.
  flood_window(network, 120.0, 160.0, 41);
  flood_window(network, 380.0, 420.0, 42);
  network.run_until(SimTime::minutes(14));

  EXPECT_EQ(controller.stats().probe_failures, 1u);
  EXPECT_EQ(controller.stats().quarantine_entries, 2u);
  bool saw_probe_failure = false;
  for (const MitigationController::StageEdge& e : recorder.edges()) {
    if (e.reason == EdgeReason::kProbeFailed) {
      saw_probe_failure = true;
      EXPECT_EQ(e.from, Stage::kRateLimit);
      EXPECT_EQ(e.to, Stage::kQuarantine);
    }
  }
  EXPECT_TRUE(saw_probe_failure);
}

// --- empty policy is a strict no-op -----------------------------------------

struct NoopProbe {
  std::vector<core::PeriodReport> history;
  std::uint64_t uplink_delivered = 0;
  std::uint64_t downlink_delivered = 0;
  std::uint64_t dropped_policer = 0;
};

NoopProbe run_noop_scenario(bool with_empty_controller) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  std::optional<MitigationController> controller;
  std::optional<MitigationRecorder> recorder;
  if (with_empty_controller) {
    controller.emplace(agent, network.router(), MitigationPolicy{});
    recorder.emplace(*controller);
  }
  network.schedule_outbound_background(background_starts(3.0, 8, 33));
  flood_window(network, 120.0, 240.0, 41);
  network.run_until(SimTime::minutes(8));
  if (recorder) {
    EXPECT_TRUE(recorder->edges().empty());
    EXPECT_FALSE(recorder->mitigating());
  }
  NoopProbe r;
  r.history = agent.history();
  r.uplink_delivered = network.uplink().delivered();
  r.downlink_delivered = network.downlink().delivered();
  r.dropped_policer = network.router().stats().dropped_policer;
  return r;
}

TEST(MitigationControllerTest, EmptyPolicyChangesNothing) {
  const NoopProbe base = run_noop_scenario(false);
  const NoopProbe empty = run_noop_scenario(true);
  ASSERT_EQ(base.history.size(), empty.history.size());
  for (std::size_t i = 0; i < base.history.size(); ++i) {
    EXPECT_EQ(base.history[i].syn_count, empty.history[i].syn_count) << i;
    EXPECT_EQ(base.history[i].syn_ack_count,
              empty.history[i].syn_ack_count)
        << i;
    EXPECT_EQ(base.history[i].y, empty.history[i].y) << i;
  }
  EXPECT_EQ(base.uplink_delivered, empty.uplink_delivered);
  EXPECT_EQ(base.downlink_delivered, empty.downlink_delivered);
  EXPECT_EQ(base.dropped_policer, 0u);
  EXPECT_EQ(empty.dropped_policer, 0u);
}

// --- degraded evidence never engages ----------------------------------------

TEST(MitigationControllerTest, DegradedFalseAlarmIsVetoed) {
  sim::StubNetworkSim network(small_site_params());
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          capped_params());
  MitigationController controller(agent, network.router(),
                                  MitigationPolicy::staged_defaults());
  MitigationRecorder recorder(controller);
  // Dead return path for three minutes: every inbound SYN/ACK bypasses
  // the tap, the agent's counters collapse, and any alarm it still
  // raises is flagged degraded — the controller must veto them all.
  fault::FaultSchedule schedule;
  schedule.asymmetric_route(SimTime::from_seconds(120.0),
                            SimTime::from_seconds(300.0), 1.0);
  fault::ChaosController chaos(network, std::move(schedule), 7);
  network.schedule_outbound_background(background_starts(3.0, 10, 33));
  network.run_until(SimTime::minutes(10));

  EXPECT_EQ(controller.stats().engagements, 0u);
  EXPECT_EQ(controller.stats().quarantine_entries, 0u);
  EXPECT_GT(controller.stats().vetoed_alarm_periods, 0u);
  EXPECT_TRUE(recorder.edges().empty());
  EXPECT_EQ(network.router().stats().dropped_policer, 0u);
  EXPECT_EQ(controller.target_count(), 0u);
}

// --- victim-side SYN cookies ------------------------------------------------

TEST(TcpHostCookieTest, CookieModeEngagesServesLegitAndReverts) {
  sim::StubNetworkParams params;
  params.num_hosts = 3;
  sim::StubNetworkSim network(params);
  sim::TcpHostParams victim_params;
  victim_params.backlog = 64;
  victim_params.syn_cookies = true;
  sim::TcpHost& victim = network.add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params);
  victim.listen(80);

  // Spoofed flood: 500 SYNs over 5 s wedge a classic backlog. With
  // cookies the high-water mark trips instead and the handshake goes
  // stateless.
  std::vector<SimTime> flood;
  for (int i = 0; i < 500; ++i) {
    flood.push_back(SimTime::milliseconds(10 * i));
  }
  network.launch_flood(2, flood, victim.ip(), 80,
                       *net::Ipv4Prefix::parse("240.0.0.0/8"));
  // Legit connections arriving mid-flood must still complete: the
  // stateless SYN/ACK carries a valid cookie and the final ACK mints the
  // connection without ever having held a backlog slot.
  for (int i = 0; i < 5; ++i) {
    network.scheduler().schedule_at(
        SimTime::from_seconds(6.0 + 0.5 * i), [&network, &victim] {
          network.host(1).connect(victim.ip(), 80);
        });
  }
  network.run_until(SimTime::seconds(20));

  EXPECT_TRUE(victim.cookie_mode_active());
  EXPECT_EQ(victim.stats().cookie_engagements, 1u);
  EXPECT_GT(victim.stats().syn_cookies_sent, 0u);
  EXPECT_GE(victim.stats().syn_cookies_validated, 5u);
  EXPECT_GE(victim.stats().established_as_server, 5u);
  // The spoofed half of the flood never ACKs, so nothing it sent was
  // validated; cookies also never rejected the legit clients.
  EXPECT_EQ(victim.stats().syn_cookies_rejected, 0u);

  // Once the pre-engagement half-open entries expire, the next SYN sees
  // the low-water mark and reverts to the classic handshake.
  network.scheduler().schedule_at(SimTime::seconds(150), [&network, &victim] {
    network.host(1).connect(victim.ip(), 80);
  });
  network.run_until(SimTime::seconds(160));
  EXPECT_FALSE(victim.cookie_mode_active());

  // The high-water mark trips before the backlog fills, so cookie mode
  // never drops a SYN.
  EXPECT_EQ(victim.stats().backlog_drops, 0u);
}

// --- randomized ladder sequences --------------------------------------------

/// An outbound SYN from stub station `host`: spoofed from the
/// 203.0.113.0/24 pool, or from the station's own in-prefix address.
net::Packet station_syn(std::uint32_t host, bool spoofed, util::Rng& rng) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.src_ip = spoofed
                    ? net::Ipv4Address(203, 0, 113,
                                       static_cast<std::uint8_t>(
                                           rng.uniform_int(1, 254)))
                    : net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 7);
  spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  spec.dst_port = 80;
  return net::make_syn(spec);
}

TEST(MitigationSequenceTest, RandomSequencesKeepTheLadderInvariants) {
  // Like SynDogAgentTest.RandomSequencesKeepTheHealthInvariants: the
  // agent sits on a LeafRouter whose scheduler never runs, so every
  // period closes through close_period. Runs of one regime follow each
  // other: quiet, flooding, degraded (a flood seen through a stalled
  // timer or a dead return path) and blind (a sniffer outage). Before
  // each period, stations 4 and 7 send SYNs through the router: spoofed
  // ones while they flood (the locator's evidence), in-prefix ones always
  // (collateral when policed). A twin agent on its own router sees the
  // same traffic with no controller. Every fed report's SYN count is the
  // period's SYNs less that period's in-prefix policer drops: the agent
  // sheds its policer's collateral on this path too.
  enum class Regime { kQuiet, kFlood, kDegraded, kBlind };
  const core::SynDogParams params = capped_params();
  const SimTime t0 = params.observation_period;
  const double release_y = mitigate::kReleaseFraction * params.threshold;
  const std::uint32_t stations[] = {4, 7};
  const std::pair<const char*, MitigationPolicy> policies[] = {
      {"empty", MitigationPolicy{}},
      {"staged", MitigationPolicy::staged_defaults()},
      {"rate-limit", MitigationPolicy::rate_limit_only()},
      {"quarantine", MitigationPolicy::quarantine_only()},
  };
  // Quiet periods have SYN <= SYN/ACK, so y falls from the cap by at
  // least `a` per period; then the slowest full release is two stage
  // steps at the largest backoff (a plain rate-limit after a probe-less
  // release).
  const auto decay_periods = static_cast<std::int64_t>(
      std::ceil((params.statistic_cap - release_y) / params.a));
  const std::int64_t lock_in_bound =
      decay_periods + 2 * mitigate::kReleaseAfter * mitigate::kBackoffMax;

  std::int64_t entered[3] = {0, 0, 0};
  std::int64_t probe_failures = 0;
  std::int64_t vetoed = 0;
  for (const auto& entry : policies) {
    const MitigationPolicy& policy = entry.second;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE(std::string(entry.first) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed);
      sim::Scheduler clock;
      const net::Ipv4Prefix stub = *net::Ipv4Prefix::parse("10.1.0.0/16");
      const auto router_mac = net::MacAddress::for_host(0xffffff);
      sim::LeafRouter router(stub, router_mac);
      sim::LeafRouter twin_router(stub, router_mac);
      router.set_uplink([](const net::Packet&) {});
      twin_router.set_uplink([](const net::Packet&) {});
      core::SynDogAgent agent(router, clock, params);
      core::SynDogAgent twin(twin_router, clock, params);
      MitigationController controller(agent, router, policy);
      std::vector<MitigationController::StageEdge> edges;
      controller.add_edge_listener(
          [&edges](const MitigationController::StageEdge& e) {
            edges.push_back(e);
          });
      std::optional<core::PeriodReport> fed;
      core::AgentHealth fed_health = core::AgentHealth::kHealthy;
      agent.add_period_callback(
          [&](const core::PeriodReport& r, core::AgentHealth h, SimTime) {
            fed = r;
            fed_health = h;
          });

      // Qualifying quiet periods since each station's last stage edge or
      // streak break: what a release must have waited for.
      std::map<net::MacAddress, std::int64_t> quiet_since;
      std::int64_t quiet_run = 0;  // fed quiet-regime periods in a row
      Regime regime = Regime::kQuiet;
      bool outage = false;
      SimTime at = SimTime::zero();

      const auto period = [&](Regime r) {
        if ((r == Regime::kBlind) != outage) {
          outage = !outage;
          agent.notify_sniffer_outage(outage);
          twin.notify_sniffer_outage(outage);
        }
        const std::int64_t missed =
            r == Regime::kDegraded && rng.bernoulli(0.5)
                ? rng.uniform_int(1, 3)
                : 0;
        const SimTime start = at;
        at = at + t0 * (missed + 1);
        const std::uint64_t legit_drops_before =
            controller.stats().dropped_legit_syns;
        const bool flooding = r == Regime::kFlood || r == Regime::kDegraded;
        for (const std::uint32_t host : stations) {
          const std::int64_t spoofed = flooding ? rng.uniform_int(0, 30) : 0;
          const std::int64_t legit = rng.uniform_int(0, 4);
          for (std::int64_t i = 0; i < spoofed + legit; ++i) {
            const SimTime when = start + SimTime::nanoseconds(rng.uniform_int(
                                             0, (at - start).ns() - 1));
            const net::Packet syn = station_syn(host, i < spoofed, rng);
            router.forward_from_intranet(when, syn);
            twin_router.forward_from_intranet(when, syn);
          }
        }
        const std::int64_t base = rng.uniform_int(40, 80);
        std::int64_t syns = base - rng.uniform_int(0, base / 10);
        std::int64_t syn_acks = base;
        if (flooding) syns = base + rng.uniform_int(30, 200);
        if (r == Regime::kDegraded && missed == 0) {
          syn_acks = rng.uniform_int(0, 1);  // dead return path
        }

        const std::size_t edges_before = edges.size();
        const std::uint64_t vetoed_before =
            controller.stats().vetoed_alarm_periods;
        fed.reset();
        agent.close_period(at, syns, syn_acks, missed);
        twin.close_period(at, syns, syn_acks, missed);
        const mitigate::ControllerStats& st = controller.stats();

        // Collateral is accounted: every policer drop is a legit or an
        // attack drop, never both, never neither.
        ASSERT_EQ(st.dropped_legit_syns + st.dropped_attack_syns,
                  router.stats().dropped_policer);
        if (!policy.enabled()) {
          // The empty policy is a no-op.
          ASSERT_EQ(agent.history(), twin.history());
          ASSERT_EQ(router.stats().forwarded_outbound,
                    twin_router.stats().forwarded_outbound);
          ASSERT_EQ(router.stats().dropped_policer, 0u);
          ASSERT_TRUE(edges.empty());
          ASSERT_EQ(controller.target_count(), 0u);
          return;
        }
        if (!fed) {
          ASSERT_EQ(edges.size(), edges_before);  // no report, no edge
          return;
        }
        // The discount reaches the report, floored at zero.
        const auto legit_drops = static_cast<std::int64_t>(
            st.dropped_legit_syns - legit_drops_before);
        ASSERT_EQ(fed->syn_count, std::max<std::int64_t>(0, syns - legit_drops));
        // No lock-in: a long enough quiet stretch after the flood
        // releases every station.
        quiet_run = r == Regime::kQuiet ? quiet_run + 1 : 0;
        if (quiet_run >= lock_in_bound) {
          ASSERT_EQ(controller.aggregate_stage(), Stage::kObserve);
        }
        const bool veto =
            fed->alarm && fed_health != core::AgentHealth::kHealthy;
        // Health veto: an untrusted alarm moves nothing.
        ASSERT_EQ(st.vetoed_alarm_periods - vetoed_before, veto ? 1u : 0u);
        if (veto) {
          ASSERT_EQ(edges.size(), edges_before);
          return;
        }
        const bool quiet = !fed->alarm && fed->y < release_y;
        for (auto& [mac, since] : quiet_since) since = quiet ? since + 1 : 0;
        for (std::size_t i = edges_before; i < edges.size(); ++i) {
          const MitigationController::StageEdge& e = edges[i];
          if (e.to == Stage::kRateLimit) ++entered[1];
          if (e.to == Stage::kQuarantine) ++entered[2];
          if (e.to == Stage::kObserve) ++entered[0];
          if (e.reason == EdgeReason::kProbeFailed) ++probe_failures;
          if (e.reason == EdgeReason::kRelease ||
              e.reason == EdgeReason::kProbePassed) {
            // Releases happen only on a decayed statistic...
            ASSERT_TRUE(quiet) << "y=" << fed->y;
          }
          if (e.reason == EdgeReason::kRelease) {
            // ...after a quiet streak the backoff stretched at most
            // kBackoffMax-fold.
            const std::int64_t streak = quiet_since[e.target];
            ASSERT_GE(streak, mitigate::kReleaseAfter);
            ASSERT_LE(streak,
                      mitigate::kReleaseAfter * mitigate::kBackoffMax);
          }
          quiet_since[e.target] = 0;
        }
      };

      for (int step = 0; step < 300; ++step) {
        if (rng.bernoulli(0.15)) {
          const double pick = rng.uniform();
          regime = pick < 0.45   ? Regime::kQuiet
                   : pick < 0.75 ? Regime::kFlood
                   : pick < 0.9  ? Regime::kDegraded
                                 : Regime::kBlind;
        }
        ASSERT_NO_FATAL_FAILURE(period(regime));
      }
      for (std::int64_t i = 0; i <= lock_in_bound; ++i) {
        ASSERT_NO_FATAL_FAILURE(period(Regime::kQuiet));
      }
      ASSERT_EQ(controller.aggregate_stage(), Stage::kObserve);
      vetoed += static_cast<std::int64_t>(
          controller.stats().vetoed_alarm_periods);
    }
  }
  // The sequences reach every stage, a failed probe and a vetoed alarm.
  EXPECT_GT(entered[0], 0);
  EXPECT_GT(entered[1], 0);
  EXPECT_GT(entered[2], 0);
  EXPECT_GT(probe_failures, 0);
  EXPECT_GT(vetoed, 0);
}

}  // namespace
}  // namespace syndog
