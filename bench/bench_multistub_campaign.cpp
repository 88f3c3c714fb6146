// The full Fig. 6 experiment as one discrete-event simulation: several
// stub networks share one Internet cloud and one victim; a campaign
// places one slave per stub. Every packet of background and attack
// traffic crosses simulated routers and links; each stub's SYN-dog and a
// last-mile agent at the victim's stub watch their own interfaces.
//
// Claims exercised end to end:
//  * every participating stub detects its f_i share and names its local
//    slave by MAC (incremental deployability: each agent works alone);
//  * the victim's backlog collapses under the aggregate;
//  * replies to spoofed sources die in the core (no RST protection).
#include <cstdio>
#include <memory>

#include "common/experiment.hpp"
#include "common/sidecar.hpp"
#include "syndog/attack/campaign.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/aggregator.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/sim/multistub.hpp"
#include "syndog/util/strings.hpp"
#include "syndog/util/table.hpp"

using namespace syndog;
using util::SimTime;

int main() {
  bench::print_header(
      "multistub_campaign",
      "Distributed campaign in one DES (paper Fig. 6, end to end)",
      "4 stubs x 1 slave, shared victim; per-stub first-mile detection + "
      "victim collapse");

  sim::MultiStubParams params;
  params.stub_count = 4;
  params.hosts_per_stub = 15;
  params.uplink_delay = SimTime::milliseconds(5);
  params.downlink_delay = SimTime::milliseconds(5);
  sim::MultiStubSim net(params);

  sim::TcpHostParams victim_params;
  victim_params.backlog = 1024;
  sim::TcpHost& victim = net.add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params);
  victim.listen(80);

  core::AlarmAggregator aggregator(
      core::SynDogParams{}.observation_period);
  std::vector<std::unique_ptr<core::SynDogAgent>> agents;
  for (int s = 0; s < params.stub_count; ++s) {
    const std::string name = "stub-" + std::to_string(s);
    agents.push_back(std::make_unique<core::SynDogAgent>(
        net.router(s), net.scheduler(),
        core::SynDogParams::paper_defaults(),
        [&aggregator, name](const core::AlarmEvent& ev) {
          aggregator.report(name, ev);
        }));
  }

  // Background: ~5 conn/s of web traffic per stub for 10 minutes.
  util::Rng rng(42);
  for (int s = 0; s < params.stub_count; ++s) {
    std::vector<SimTime> starts;
    double t = 0.0;
    while (t < 10 * 60.0) {
      t += rng.exponential_mean(0.2);
      starts.push_back(SimTime::from_seconds(t));
    }
    net.schedule_outbound_background(s, starts);
  }

  // The campaign: 240 SYN/s aggregate = 60 SYN/s per stub, 6 minutes.
  attack::CampaignSpec campaign;
  campaign.aggregate_rate = 240.0;
  campaign.stub_networks = params.stub_count;
  campaign.start = SimTime::minutes(3);
  campaign.duration = SimTime::minutes(6);
  const attack::Campaign c(campaign, 7);
  std::vector<std::uint32_t> slaves;
  for (int s = 0; s < params.stub_count; ++s) {
    const std::uint32_t slave =
        c.slaves_in_stub(s)[0].host_index % params.hosts_per_stub + 1;
    slaves.push_back(slave);
    net.launch_flood(s, slave, c.flood_times_in_stub(s), victim.ip(), 80,
                     *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }

  // Wall-clock the main run for the perf trajectory (scalars only; the
  // simulation itself stays deterministic from seeds).
  const obs::WallClock clock;
  const std::uint64_t executed_before = net.scheduler().executed();
  const std::int64_t wall_start = clock.now_ns();
  net.run_until(SimTime::minutes(10));
  const double wall_s =
      static_cast<double>(clock.now_ns() - wall_start) / 1e9;
  const double events =
      static_cast<double>(net.scheduler().executed() - executed_before);
  bench::sidecar()->scalar("events_per_sec", events / wall_s);
  bench::sidecar()->scalar("sim_seconds_per_wall_sec", 600.0 / wall_s);
  const sim::CloudStats& cs = net.cloud().stats();
  // Wide-area packet disposals per wall second (everything the cloud
  // delivered, answered, absorbed, or sank).
  bench::sidecar()->scalar(
      "packets_per_sec",
      static_cast<double>(cs.syns_seen + cs.syn_acks_generated +
                          cs.delivered_to_hosts + cs.dropped_unreachable +
                          cs.absorbed_elsewhere) /
          wall_s);

  const std::int64_t onset =
      campaign.start / core::SynDogParams{}.observation_period;
  util::TextTable table({"stub", "alarmed", "delay [t0]",
                         "top suspect MAC", "is the slave?"});
  for (int s = 0; s < params.stub_count; ++s) {
    const auto& agent = *agents[static_cast<std::size_t>(s)];
    const auto suspects = agent.locator().suspects();
    const net::MacAddress slave_mac = net::MacAddress::for_host(
        static_cast<std::uint32_t>(s) * 0x10000 + slaves[s]);
    table.add_row(
        {std::to_string(s), agent.ever_alarmed() ? "yes" : "NO",
         agent.ever_alarmed()
             ? util::format_double(
                   static_cast<double>(agent.first_alarm_period() - onset),
                   0)
             : "-",
         suspects.empty() ? "-" : suspects.front().mac.to_string(),
         !suspects.empty() && suspects.front().mac == slave_mac ? "yes"
                                                                : "NO"});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf(
      "\nvictim: backlog %zu/%zu half-open, %s SYNs dropped (backlog "
      "full), %s handshakes served\n",
      victim.half_open_count(), victim_params.backlog,
      util::format_count(static_cast<std::int64_t>(
          victim.stats().backlog_drops)).c_str(),
      util::format_count(static_cast<std::int64_t>(
          victim.stats().established_as_server)).c_str());
  std::printf(
      "core: %s SYN/ACK replies to spoofed sources died unreachable; "
      "victim sent %s RSTs (none reached an attacker)\n",
      util::format_count(static_cast<std::int64_t>(
          net.cloud().stats().dropped_unreachable)).c_str(),
      util::format_count(static_cast<std::int64_t>(
          victim.stats().rsts_sent)).c_str());
  std::printf(
      "operator aggregation: %zu stubs alarming, estimated campaign\n"
      "aggregate %.0f SYN/s (true V = %.0f)\n",
      aggregator.alarming_stubs(), aggregator.estimated_aggregate_rate(),
      campaign.aggregate_rate);
  std::printf(
      "\nexpected: all four stubs alarm within ~1-2 periods of onset and\n"
      "name their own slave's MAC -- each agent alone, no coordination,\n"
      "no traceback -- while the victim's backlog saturates despite\n"
      "answering every request it can.\n");
  return 0;
}
