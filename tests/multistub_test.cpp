// Multi-stub Internet simulation: one cloud and one victim shared by
// several stub networks, each watched by its own SYN-dog agent — the
// paper's distributed DDoS setting in a single event loop.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "syndog/attack/campaign.hpp"
#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/sim/multistub.hpp"

namespace syndog {
namespace {

using util::SimTime;

TEST(MultiStubTest, PrefixesAndHostsAreDisjoint) {
  sim::MultiStubParams params;
  params.stub_count = 4;
  params.hosts_per_stub = 5;
  sim::MultiStubSim net(params);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_FALSE(
          net.stub_prefix(a).contains(net.stub_prefix(b).base()));
    }
    EXPECT_TRUE(net.stub_prefix(a).contains(net.host(a, 1).ip()));
  }
  EXPECT_THROW((void)net.router(4), std::out_of_range);
  EXPECT_THROW((void)net.host(0, 6), std::out_of_range);
  EXPECT_THROW(
      (void)net.add_internet_host(net.stub_prefix(2).host(1), {}),
      std::invalid_argument);
}

TEST(MultiStubTest, HostIndexIsOneBasedAndRangeChecked) {
  sim::MultiStubParams params;
  params.stub_count = 2;
  params.hosts_per_stub = 5;
  sim::MultiStubSim net(params);
  // Boundaries of the documented [1, hosts_per_stub] range.
  EXPECT_EQ(net.host(0, 1).ip(), net.stub_prefix(0).host(1));
  EXPECT_EQ(net.host(1, 5).ip(), net.stub_prefix(1).host(5));
  // Index 0 is the prefix base, never host 1 — it must throw, not alias.
  EXPECT_THROW((void)net.host(0, 0), std::out_of_range);
  EXPECT_THROW((void)net.host(0, 6), std::out_of_range);
  EXPECT_THROW((void)net.host(-1, 1), std::out_of_range);
  EXPECT_THROW((void)net.host(2, 1), std::out_of_range);
  try {
    (void)net.host(0, 0);
    FAIL() << "host(0, 0) must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 5]"), std::string::npos)
        << e.what();
  }
  try {
    (void)net.host(7, 1);
    FAIL() << "host(7, 1) must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("stub index 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(MultiStubTest, CrossStubConnectionsComplete) {
  // A client in stub 0 connects to a server host in stub 2: traffic
  // crosses both leaf routers and the shared cloud.
  sim::MultiStubParams params;
  params.stub_count = 3;
  params.hosts_per_stub = 3;
  params.cloud.no_answer_probability = 0.0;
  sim::MultiStubSim net(params);
  net.host(2, 1).listen(80);

  std::uint64_t stub0_out = 0;
  std::uint64_t stub2_in = 0;
  net.router(0).add_outbound_tap(
      [&](SimTime, const net::Packet& pkt) { stub0_out += pkt.is_syn(); });
  net.router(2).add_inbound_tap(
      [&](SimTime, const net::Packet& pkt) { stub2_in += pkt.is_syn(); });

  net.scheduler().schedule_at(SimTime::seconds(1), [&] {
    net.host(0, 1).connect(net.host(2, 1).ip(), 80);
  });
  net.run_until(SimTime::seconds(30));

  EXPECT_EQ(net.host(0, 1).stats().established_as_client, 1u);
  EXPECT_EQ(net.host(2, 1).stats().established_as_server, 1u);
  EXPECT_EQ(stub0_out, 1u);
  EXPECT_EQ(stub2_in, 1u);
}

TEST(MultiStubTest, DistributedCampaignDetectedInEveryStubAndAtVictim) {
  // Three stubs each host one slave; the aggregate lands on a shared
  // victim. Every stub's first-mile agent must alarm with the correct
  // local MAC, and the victim's backlog must saturate.
  sim::MultiStubParams params;
  params.stub_count = 3;
  params.hosts_per_stub = 10;
  sim::MultiStubSim net(params);

  sim::TcpHostParams victim_params;
  victim_params.backlog = 256;
  sim::TcpHost& victim = net.add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params);
  victim.listen(80);

  std::vector<std::unique_ptr<core::SynDogAgent>> agents;
  for (int s = 0; s < 3; ++s) {
    agents.push_back(std::make_unique<core::SynDogAgent>(
        net.router(s), net.scheduler(),
        core::SynDogParams::paper_defaults()));
  }

  attack::CampaignSpec campaign;
  campaign.aggregate_rate = 150.0;  // 50 SYN/s per stub
  campaign.stub_networks = 3;
  campaign.start = SimTime::minutes(2);
  campaign.duration = SimTime::minutes(5);
  const attack::Campaign c(campaign, 55);

  util::Rng rng(66);
  for (int s = 0; s < 3; ++s) {
    std::vector<SimTime> starts;
    double t = 0.0;
    while (t < 8 * 60.0) {
      t += rng.exponential_mean(0.25);  // 4 conn/s background per stub
      starts.push_back(SimTime::from_seconds(t));
    }
    net.schedule_outbound_background(s, starts);
    const std::uint32_t slave =
        c.slaves_in_stub(s)[0].host_index % params.hosts_per_stub + 1;
    net.launch_flood(s, slave, c.flood_times_in_stub(s), victim.ip(), 80,
                     *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }
  net.run_until(SimTime::minutes(6));

  const std::int64_t onset =
      campaign.start / core::SynDogParams{}.observation_period;
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(agents[static_cast<std::size_t>(s)]->ever_alarmed())
        << "stub " << s;
    EXPECT_GE(agents[static_cast<std::size_t>(s)]->first_alarm_period(),
              onset);
    const auto suspects =
        agents[static_cast<std::size_t>(s)]->locator().suspects();
    ASSERT_FALSE(suspects.empty()) << "stub " << s;
    const std::uint32_t slave =
        c.slaves_in_stub(s)[0].host_index % params.hosts_per_stub + 1;
    EXPECT_EQ(suspects.front().mac,
              net::MacAddress::for_host(
                  static_cast<std::uint32_t>(s) * 0x10000 + slave))
        << "stub " << s;
  }
  EXPECT_TRUE(victim.backlog_full());
  EXPECT_GT(victim.stats().backlog_drops, 1000u);
  // Spoofed replies died in the core, not at any stub's downlink.
  EXPECT_GT(net.cloud().stats().dropped_unreachable, 1000u);
}

TEST(MultiStubTest, CleanStubsStayQuietWhileOneFloods) {
  // Only stub 1 hosts a slave: its agent alarms, the others don't.
  sim::MultiStubParams params;
  params.stub_count = 3;
  params.hosts_per_stub = 8;
  sim::MultiStubSim net(params);

  std::vector<std::unique_ptr<core::SynDogAgent>> agents;
  for (int s = 0; s < 3; ++s) {
    agents.push_back(std::make_unique<core::SynDogAgent>(
        net.router(s), net.scheduler(),
        core::SynDogParams::paper_defaults()));
  }
  util::Rng rng(77);
  for (int s = 0; s < 3; ++s) {
    std::vector<SimTime> starts;
    double t = 0.0;
    while (t < 6 * 60.0) {
      t += rng.exponential_mean(0.3);
      starts.push_back(SimTime::from_seconds(t));
    }
    net.schedule_outbound_background(s, starts);
  }
  attack::FloodSpec flood;
  flood.rate = 60.0;
  flood.start = SimTime::minutes(2);
  flood.duration = SimTime::minutes(3);
  util::Rng frng(78);
  net.launch_flood(1, 4, attack::generate_flood_times(flood, frng),
                   net::Ipv4Address(198, 51, 100, 10), 80,
                   *net::Ipv4Prefix::parse("240.0.0.0/8"));
  net.run_until(SimTime::minutes(6));

  EXPECT_FALSE(agents[0]->ever_alarmed());
  EXPECT_TRUE(agents[1]->ever_alarmed());
  EXPECT_FALSE(agents[2]->ever_alarmed());
}

}  // namespace
}  // namespace syndog
