// Tests for the extension features beyond the paper's core algorithm:
// Shiryaev-Roberts detection, adaptive site tuning, flash-crowd
// discrimination, last-mile deployment, and the RST-reflection argument
// for why flood sources must spoof unreachable addresses.
#include <gtest/gtest.h>

#include "syndog/attack/campaign.hpp"
#include "syndog/attack/flood.hpp"
#include "syndog/core/adaptive.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/detect/shiryaev.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/trace/periods.hpp"
#include "syndog/trace/site.hpp"

namespace syndog {
namespace {

using util::SimTime;

// --- Shiryaev-Roberts -------------------------------------------------------

TEST(ShiryaevRobertsTest, QuietUnderNormalInput) {
  detect::ShiryaevRoberts sr(detect::ShiryaevRobertsParams{});
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const detect::Decision d = sr.update(rng.uniform(0.0, 0.2));
    ASSERT_FALSE(d.alarm) << i;
  }
}

TEST(ShiryaevRobertsTest, DetectsSustainedShift) {
  detect::ShiryaevRoberts sr(detect::ShiryaevRobertsParams{});
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) (void)sr.update(rng.uniform(0.0, 0.2));
  int steps = 0;
  while (!sr.update(0.7).alarm) {
    ++steps;
    ASSERT_LT(steps, 30);
  }
  // log A = log(1000) ~ 6.9; drift g*(x-a) = 4*0.35 = 1.4/step -> ~5.
  EXPECT_LE(steps, 8);
}

TEST(ShiryaevRobertsTest, SurvivesLongQuietStretchesWithoutUnderflow) {
  detect::ShiryaevRoberts sr(detect::ShiryaevRobertsParams{});
  for (int i = 0; i < 100000; ++i) {
    (void)sr.update(-5.0);  // extremely "no change" evidence
  }
  // The statistic must recover in bounded time: log-space recursion keeps
  // log(1+R) >= 0, so ~5 shifted samples still suffice.
  int steps = 0;
  while (!sr.update(0.7).alarm) {
    ++steps;
    ASSERT_LT(steps, 30);
  }
}

TEST(ShiryaevRobertsTest, ResetAndValidation) {
  detect::ShiryaevRoberts sr(detect::ShiryaevRobertsParams{});
  (void)sr.update(2.0);
  EXPECT_GT(sr.statistic(), 0.0);
  sr.reset();
  EXPECT_EQ(sr.statistic(), 0.0);
  EXPECT_THROW(
      detect::ShiryaevRoberts(detect::ShiryaevRobertsParams{0.0, 0.35, 4.0}),
      std::invalid_argument);
  EXPECT_THROW(
      detect::ShiryaevRoberts(detect::ShiryaevRobertsParams{10.0, 0.35, 0.0}),
      std::invalid_argument);
}

// --- AdaptiveSynDog ---------------------------------------------------------

TEST(AdaptiveTest, LearnsSiteParametersFromQuietTraffic) {
  core::AdaptiveParams params;
  params.training_periods = 30;
  core::AdaptiveSynDog dog(params);
  util::Rng rng(3);
  for (int n = 0; n < 40; ++n) {
    const auto acks = static_cast<std::int64_t>(2000 + rng.uniform_int(-50,
                                                                       50));
    (void)dog.observe_period(acks + 60, acks);  // c ~= 0.03, tiny sigma
  }
  ASSERT_TRUE(dog.trained());
  EXPECT_NEAR(dog.learned_c(), 0.03, 0.01);
  // Learned offset sits between c and the universal 0.35, and the
  // threshold follows the design rule N = 3a.
  EXPECT_LT(dog.active_params().a, 0.35);
  EXPECT_GT(dog.active_params().a, dog.learned_c());
  EXPECT_NEAR(dog.active_params().threshold,
              3.0 * dog.active_params().a, 1e-9);
  // And the floor drops accordingly (universal floor here ~35 SYN/s).
  EXPECT_LT(dog.min_detectable_rate(), 25.0);
}

TEST(AdaptiveTest, TunedDetectorCatchesSubUniversalFlood) {
  // A flood at ~60% of the universal floor: invisible to the paper's
  // default parameters, caught after tuning.
  const auto run = [](bool adaptive) {
    core::AdaptiveParams params;
    params.training_periods = 40;
    core::AdaptiveSynDog adaptive_dog(params);
    core::SynDog fixed_dog(core::SynDogParams::paper_defaults());
    util::Rng rng(4);
    bool alarmed = false;
    for (int n = 0; n < 120; ++n) {
      const auto acks = static_cast<std::int64_t>(
          2000 + rng.uniform_int(-40, 40));
      std::int64_t syns = acks + 60;
      if (n >= 80) syns += 420;  // flood: 21 SYN/s * 20 s, floor is ~35
      const core::PeriodReport r =
          adaptive ? adaptive_dog.observe_period(syns, acks)
                   : fixed_dog.observe_period(syns, acks);
      if (n >= 80 && r.alarm) alarmed = true;
    }
    return alarmed;
  };
  EXPECT_FALSE(run(false));
  EXPECT_TRUE(run(true));
}

TEST(AdaptiveTest, FloodDuringTrainingIsNotLearned) {
  core::AdaptiveParams params;
  params.training_periods = 30;
  core::AdaptiveSynDog dog(params);
  util::Rng rng(5);
  // A flood rages through the would-be training window; its periods have
  // y > 0 and must not feed the estimator.
  for (int n = 0; n < 60; ++n) {
    const auto acks = static_cast<std::int64_t>(2000 +
                                                rng.uniform_int(-40, 40));
    const std::int64_t syns = acks + 60 + (n < 25 ? 3000 : 0);
    (void)dog.observe_period(syns, acks);
  }
  ASSERT_TRUE(dog.trained());
  // Learned c reflects the clean periods only.
  EXPECT_LT(dog.learned_c(), 0.06);
}

TEST(AdaptiveTest, Validation) {
  core::AdaptiveParams bad;
  bad.training_periods = 1;
  EXPECT_THROW(core::AdaptiveSynDog{bad}, std::invalid_argument);
}

// --- flash crowds ------------------------------------------------------------

TEST(FlashCrowdTest, ModerateSurgeDoesNotAlarm) {
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  spec.disruptions_per_hour = 0.0;
  trace::ConnectionTrace background = trace::generate_site_trace(spec, 9);
  // 3x the site's volume for 4 minutes: a big legitimate event.
  trace::ConnectionTrace surge = trace::generate_flash_crowd(
      spec, SimTime::minutes(10), SimTime::minutes(4), 3.0, 9);
  const trace::ConnectionTrace merged =
      trace::merge_traces(std::move(background), std::move(surge));
  const trace::PeriodSeries ps =
      trace::extract_periods(merged, trace::kObservationPeriod);
  const auto reports = core::run_over_series(
      core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.alarm) << "period " << r.period_index;
  }
}

TEST(FlashCrowdTest, EqualVolumeSpoofedFloodDoesAlarm) {
  // The discriminating pair: the same extra SYN volume as the 3x surge
  // above, but spoofed (no SYN/ACKs) -> must alarm.
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  spec.disruptions_per_hour = 0.0;
  trace::PeriodSeries ps = trace::extract_periods(
      trace::generate_site_trace(spec, 9), trace::kObservationPeriod);
  attack::FloodSpec flood;
  flood.rate = 2.0 * spec.outbound_rate;  // the surge's extra volume
  flood.start = SimTime::minutes(10);
  flood.duration = SimTime::minutes(4);
  util::Rng rng(9);
  ps.add_outbound_syns(trace::bucket_times(
      attack::generate_flood_times(flood, rng), ps.period, ps.size()));
  const auto reports = core::run_over_series(
      core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
  bool alarmed = false;
  for (const auto& r : reports) alarmed |= r.alarm;
  EXPECT_TRUE(alarmed);
}

TEST(FlashCrowdTest, SurgeConnectionsAreAnswered) {
  const trace::SiteSpec spec = trace::site_spec(trace::SiteId::kAuckland);
  const trace::ConnectionTrace surge = trace::generate_flash_crowd(
      spec, SimTime::minutes(30), SimTime::minutes(5), 4.0, 11);
  EXPECT_GT(surge.attempts(), 100u);
  const double answered = static_cast<double>(surge.total_syn_acks()) /
                          static_cast<double>(surge.attempts());
  EXPECT_GT(answered, 0.95);
  for (const trace::Handshake& hs : surge.handshakes) {
    EXPECT_GE(hs.first_syn(), SimTime::minutes(30));
    EXPECT_LT(hs.first_syn(), SimTime::minutes(35));
  }
}

TEST(FlashCrowdTest, Validation) {
  const trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  EXPECT_THROW((void)trace::generate_flash_crowd(
                   spec, SimTime::minutes(1), SimTime::minutes(1), 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)trace::generate_flash_crowd(
          spec, SimTime::minutes(29), SimTime::minutes(5), 3.0, 1),
      std::invalid_argument);
}

// --- last-mile deployment ------------------------------------------------------

TEST(LastMileTest, VictimSideAgentDetectsArrivingFlood) {
  // The victim's own stub: servers listen, the flood arrives from the
  // Internet. The last-mile pair is incoming SYNs vs outgoing SYN/ACKs;
  // it diverges once the victim's backlog saturates.
  sim::StubNetworkParams params;
  params.num_hosts = 4;
  params.host_params.backlog = 256;
  sim::StubNetworkSim network(params);
  network.make_servers(80);

  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults(), {},
                          core::AgentMode::kLastMile);

  // Legitimate inbound browsing keeps the SYN/ACK level healthy.
  util::Rng rng(21);
  std::vector<SimTime> inbound;
  double t = 0.0;
  while (t < 10 * 60.0) {
    t += rng.exponential_mean(0.25);  // 4 conn/s
    inbound.push_back(SimTime::from_seconds(t));
  }
  network.schedule_inbound_background(inbound);

  // The flood arrives at host 1 from spoofed Internet sources: inject
  // inbound SYN frames at the router.
  attack::FloodSpec flood;
  flood.rate = 60.0;
  flood.start = SimTime::minutes(4);
  flood.duration = SimTime::minutes(5);
  util::Rng frng(22);
  for (const SimTime at : attack::generate_flood_times(flood, frng)) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(0xfffffe);
    spec.src_ip = net::Ipv4Address{0xf0000000u + frng.next_u32() % 65536};
    spec.dst_ip = params.stub_prefix.host(1);
    spec.src_port = static_cast<std::uint16_t>(frng.uniform_int(1024,
                                                                65535));
    spec.dst_port = 80;
    spec.seq = frng.next_u32();
    network.replay_at_router(at, net::make_syn(spec));
  }
  // Mid-flood the victim's backlog is saturated (75 s timeouts drain it
  // again once the flood stops, so check before the end).
  network.run_until(SimTime::minutes(8));
  EXPECT_TRUE(network.host(1).backlog_full());
  network.run_until(SimTime::minutes(10));

  ASSERT_TRUE(agent.ever_alarmed());
  // Detection needs the backlog to fill first (until then every SYN gets
  // its SYN/ACK), so the alarm comes at or after the onset period.
  const std::int64_t onset =
      flood.start / core::SynDogParams{}.observation_period;
  EXPECT_GE(agent.first_alarm_period(), onset);
  // No MAC evidence at the last mile: the sources are beyond the router.
  EXPECT_TRUE(agent.locator().suspects().empty());
}

TEST(LastMileTest, QuietVictimStubNeverAlarms) {
  sim::StubNetworkParams params;
  params.num_hosts = 4;
  sim::StubNetworkSim network(params);
  network.make_servers(80);
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults(), {},
                          core::AgentMode::kLastMile);
  util::Rng rng(23);
  std::vector<SimTime> inbound;
  double t = 0.0;
  while (t < 6 * 60.0) {
    t += rng.exponential_mean(0.2);
    inbound.push_back(SimTime::from_seconds(t));
  }
  network.schedule_inbound_background(inbound);
  network.run_until(SimTime::minutes(6));
  EXPECT_FALSE(agent.ever_alarmed());
}

// --- RST reflection -----------------------------------------------------------

TEST(ReflectionTest, SpoofingReachableSourcesDefeatsTheFlood) {
  // Paper §1: "the spoofed source address must be an invalid IP address
  // ... otherwise, any endhost that receives the SYN/ACKs from the victim
  // would send a RST ... foiling the flooding attack." Reproduce both
  // sides of that claim.
  const auto run = [](bool reachable_spoof) {
    sim::StubNetworkParams params;
    params.num_hosts = 2;
    sim::StubNetworkSim network(params);
    sim::TcpHostParams victim_params;
    victim_params.backlog = 128;
    sim::TcpHost& victim = network.add_internet_host(
        net::Ipv4Address(198, 51, 100, 10), victim_params);
    victim.listen(80);
    // A real, reachable bystander host whose address the attacker might
    // spoof.
    sim::TcpHost& bystander = network.add_internet_host(
        net::Ipv4Address(203, 0, 113, 5), {});

    std::vector<SimTime> flood;
    for (int i = 0; i < 3000; ++i) {
      flood.push_back(SimTime::milliseconds(5 * i));
    }
    const net::Ipv4Prefix pool =
        reachable_spoof ? net::Ipv4Prefix(bystander.ip(), 32)
                        : *net::Ipv4Prefix::parse("240.0.0.0/8");
    network.launch_flood(1, flood, victim.ip(), 80, pool);
    network.run_until(SimTime::seconds(40));

    return std::pair{victim.half_open_count(),
                     bystander.stats().rsts_sent};
  };

  const auto [unreachable_half_open, no_rsts] = run(false);
  EXPECT_GE(unreachable_half_open, 128u);  // backlog exhausted
  EXPECT_EQ(no_rsts, 0u);

  const auto [reachable_half_open, rsts] = run(true);
  EXPECT_LT(reachable_half_open, 32u);  // RSTs keep freeing the slots
  EXPECT_GT(rsts, 2000u);
}

// --- multi-stub campaign at the DES level -----------------------------------------

TEST(MultiStubTest, EveryParticipatingStubsAgentSeesItsShare) {
  // Three stubs, each with one slave flooding the same victim at
  // V/3 SYN/s; every stub's first-mile agent must alarm independently.
  attack::CampaignSpec campaign;
  campaign.aggregate_rate = 150.0;
  campaign.stub_networks = 3;
  campaign.start = SimTime::minutes(2);
  campaign.duration = SimTime::minutes(5);
  const attack::Campaign c(campaign, 77);

  int alarms = 0;
  for (std::int64_t stub = 0; stub < campaign.stub_networks; ++stub) {
    sim::StubNetworkParams params;
    params.num_hosts = 30;
    params.seed = 100 + static_cast<std::uint64_t>(stub);
    sim::StubNetworkSim network(params);
    core::SynDogAgent agent(network.router(), network.scheduler(),
                            core::SynDogParams::paper_defaults());

    util::Rng rng(200 + static_cast<std::uint64_t>(stub));
    std::vector<SimTime> starts;
    double t = 0.0;
    while (t < 8 * 60.0) {
      t += rng.exponential_mean(0.25);
      starts.push_back(SimTime::from_seconds(t));
    }
    network.schedule_outbound_background(starts);
    network.launch_flood(
        c.slaves_in_stub(stub)[0].host_index % params.num_hosts + 1,
        c.flood_times_in_stub(stub), net::Ipv4Address(198, 51, 100, 10),
        80, *net::Ipv4Prefix::parse("240.0.0.0/8"));
    network.run_until(SimTime::minutes(8));
    if (agent.ever_alarmed()) ++alarms;
  }
  EXPECT_EQ(alarms, 3);
}

}  // namespace
}  // namespace syndog
