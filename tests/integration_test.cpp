// Cross-module integration tests: trace -> packets -> router -> agent,
// the live DES end to end, and the pcap round trip — each path exercising
// the same detection pipeline the paper's Fig. 6 experiment uses.
#include <gtest/gtest.h>

#include <sstream>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"

namespace syndog {
namespace {

using util::SimTime;

/// A small, fast site: ~8 conn/s for 10 minutes.
trace::SiteSpec small_site() {
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kAuckland);
  spec.duration = SimTime::minutes(10);
  spec.outbound_rate = 8.0;
  spec.inbound_rate = 0.0;
  spec.disruptions_per_hour = 0.0;
  spec.expected_syn_ack_per_period = 8.0 * 20.0;
  return spec;
}

TEST(IntegrationTest, TraceDrivenReplayDetectsAndLocatesFlood) {
  // Paper Fig. 6: normal bidirectional traffic replayed through the leaf
  // router with flooding traffic mixed in; SYN-dog's agent watches the
  // interface taps.
  const trace::SiteSpec spec = small_site();
  const trace::ConnectionTrace background =
      trace::generate_site_trace(spec, 11);

  trace::RenderConfig render_cfg;
  std::vector<trace::TimedPacket> packets =
      trace::render_trace(background, render_cfg);

  attack::FloodSpec flood;
  flood.rate = 60.0;  // well above this small site's floor (~14 SYN/s)
  flood.start = SimTime::minutes(4);
  flood.duration = SimTime::minutes(5);
  util::Rng flood_rng(13);
  trace::AttackRenderConfig attack_cfg;
  attack_cfg.attacker_hosts = {7};
  packets = trace::merge_packets(
      std::move(packets),
      trace::render_attack(attack::generate_flood_times(flood, flood_rng),
                           attack_cfg));

  sim::StubNetworkParams net_params;
  net_params.stub_prefix = render_cfg.stub_prefix;
  net_params.num_hosts = 2;  // endpoints live in the trace, not the sim
  sim::StubNetworkSim network(net_params);
  // Trace-driven: a sink uplink keeps the cloud from answering replayed
  // packets (the trace already holds the reverse direction).
  network.router().set_uplink([](const net::Packet&) {});

  std::vector<core::AlarmEvent> alarms;
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults(),
                          [&](const core::AlarmEvent& ev) {
                            alarms.push_back(ev);
                          });
  for (const trace::TimedPacket& tp : packets) {
    network.replay_at_router(tp.at, tp.packet);
  }
  network.run_until(spec.duration);

  ASSERT_TRUE(agent.ever_alarmed());
  const std::int64_t onset_period =
      flood.start / core::SynDogParams{}.observation_period;
  EXPECT_GE(agent.first_alarm_period(), onset_period);
  EXPECT_LE(agent.first_alarm_period(), onset_period + 10);

  // No alarm before the flood: every pre-onset report is quiet.
  for (const core::PeriodReport& r : agent.history()) {
    if (r.period_index < onset_period) {
      EXPECT_FALSE(r.alarm) << "false alarm at period " << r.period_index;
    }
  }

  // Localization: the flooding slave's MAC tops the suspect list.
  ASSERT_FALSE(alarms.empty());
  ASSERT_FALSE(alarms.front().suspects.empty());
  EXPECT_EQ(alarms.front().suspects.front().mac,
            net::MacAddress::for_host(7));
  EXPECT_GT(alarms.front().suspects.front().spoofed_syns, 100u);
}

TEST(IntegrationTest, LiveSimulationDetectsFloodAmongLegitimateTraffic) {
  // Fully simulated endpoints: hosts connect through the cloud while a
  // compromised host floods an external victim.
  sim::StubNetworkParams params;
  params.num_hosts = 20;
  params.cloud.no_answer_probability = 0.03;
  sim::StubNetworkSim network(params);

  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());

  // Legitimate background: ~6 connections/s for 8 minutes.
  util::Rng rng(17);
  std::vector<SimTime> starts;
  double t = 0.0;
  while (t < 8 * 60.0) {
    t += rng.exponential_mean(1.0 / 6.0);
    starts.push_back(SimTime::from_seconds(t));
  }
  network.schedule_outbound_background(starts);

  // Flood from host 13 starting at minute 3.
  attack::FloodSpec flood;
  flood.rate = 40.0;
  flood.start = SimTime::minutes(3);
  flood.duration = SimTime::minutes(5);
  util::Rng flood_rng(19);
  network.launch_flood(13, attack::generate_flood_times(flood, flood_rng),
                       net::Ipv4Address(198, 51, 100, 10), 80,
                       *net::Ipv4Prefix::parse("240.0.0.0/8"));

  network.run_until(SimTime::minutes(8));

  ASSERT_TRUE(agent.ever_alarmed());
  const std::int64_t onset_period =
      flood.start / core::SynDogParams{}.observation_period;
  EXPECT_GE(agent.first_alarm_period(), onset_period);
  const auto suspects = agent.locator().suspects();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().mac, net::MacAddress::for_host(13));

  // Legitimate connections kept completing during the flood (SYN-dog is
  // passive; the paper: "does not undermine end-to-end TCP performance").
  std::uint64_t established = 0;
  for (std::uint32_t h = 1; h <= params.num_hosts; ++h) {
    established += network.host(h).stats().established_as_client;
  }
  EXPECT_GT(established, starts.size() * 9 / 10);
}

TEST(IntegrationTest, CleanLiveSimulationNeverAlarms) {
  sim::StubNetworkParams params;
  params.num_hosts = 10;
  params.cloud.no_answer_probability = 0.05;
  sim::StubNetworkSim network(params);
  core::SynDogAgent agent(network.router(), network.scheduler(),
                          core::SynDogParams::paper_defaults());

  util::Rng rng(23);
  std::vector<SimTime> out_starts;
  std::vector<SimTime> in_starts;
  double t = 0.0;
  while (t < 6 * 60.0) {
    t += rng.exponential_mean(0.2);
    out_starts.push_back(SimTime::from_seconds(t));
    if (rng.bernoulli(0.5)) in_starts.push_back(SimTime::from_seconds(t));
  }
  network.make_servers(80);
  network.schedule_outbound_background(out_starts);
  network.schedule_inbound_background(in_starts);
  network.run_until(SimTime::minutes(6));

  EXPECT_FALSE(agent.ever_alarmed());
  EXPECT_GE(agent.history().size(), 17u);
  for (const core::PeriodReport& r : agent.history()) {
    EXPECT_LT(r.y, 0.5) << "period " << r.period_index;
  }
}

TEST(IntegrationTest, PcapRoundTripPreservesSnifferCounts) {
  // trace -> pcap file -> decoded frames -> sniffers == trace totals.
  const trace::SiteSpec spec = small_site();
  const trace::ConnectionTrace background =
      trace::generate_site_trace(spec, 29);
  const std::vector<trace::TimedPacket> packets =
      trace::render_trace(background, trace::RenderConfig{});

  std::stringstream file;
  pcap::Writer writer(file);
  for (const trace::TimedPacket& tp : packets) {
    writer.write(tp.at, net::encode_frame(tp.packet));
  }

  pcap::Reader reader(file);
  core::Sniffer out_sniffer(core::SnifferRole::kOutbound);
  core::Sniffer in_sniffer(core::SnifferRole::kInbound);
  while (const auto rec = reader.next()) {
    net::Packet pkt;
    ASSERT_TRUE(net::decode_frame_into(rec->data, pkt));
    out_sniffer.on_packet(pkt);
    in_sniffer.on_packet(pkt);
  }
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(out_sniffer.lifetime_count(), background.total_syns());
  EXPECT_EQ(in_sniffer.lifetime_count(), background.total_syn_acks());
}

TEST(IntegrationTest, IngressFilteringStopsTheFloodAfterAlarm) {
  // §4.2.3: once SYN-dog alarms, the router can trigger ingress filtering
  // and identify the station by MAC. Wire the alarm callback to do both.
  sim::StubNetworkParams params;
  params.num_hosts = 5;
  sim::StubNetworkSim network(params);

  core::SynDogAgent agent(
      network.router(), network.scheduler(),
      core::SynDogParams::paper_defaults(),
      [&](const core::AlarmEvent&) {
        network.router().set_ingress_filtering(true);
      });

  attack::FloodSpec flood;
  flood.rate = 80.0;
  flood.start = SimTime::minutes(1);
  flood.duration = SimTime::minutes(6);
  util::Rng rng(31);
  network.launch_flood(4, attack::generate_flood_times(flood, rng),
                       net::Ipv4Address(198, 51, 100, 10), 80,
                       *net::Ipv4Prefix::parse("240.0.0.0/8"));
  network.run_until(SimTime::minutes(7));

  ASSERT_TRUE(agent.ever_alarmed());
  EXPECT_TRUE(network.router().ingress_filtering());
  // After the alarm the filter keeps dropping the spoofed flood.
  EXPECT_GT(network.router().stats().dropped_ingress_filter, 1000u);
}

}  // namespace
}  // namespace syndog
