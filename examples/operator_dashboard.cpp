// Operator dashboard over a multi-stub deployment.
//
// Runs the full distributed scenario — several stub networks, one shared
// victim, one slave per stub — and renders what a network operator
// subscribed to every stub's SYN-dog alarms would see: per-period status
// lines, alarm banners with MAC evidence, and the aggregated campaign
// estimate (sum of per-stub flood shares).
//
// Every agent also streams into a telemetry::TelemetrySink via
// core::FleetRecorder::attach, and the final assessment is sourced from
// the recorded syndog-tsf/1 stream's alarm-timeline rollup — the same
// query path syndog_fleetctl uses — so the dashboard doubles as an
// end-to-end check that the live view and the telemetry view agree
// (rates and MAC suspects stay with the in-run aggregator: they carry
// evidence the fleet schema deliberately does not ship).
//
//   $ operator_dashboard [stubs=3] [rate_per_stub=50] [minutes=8]
#include <cstdio>
#include <optional>
#include <sstream>

#include "syndog/attack/campaign.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/aggregator.hpp"
#include "syndog/core/fleet.hpp"
#include "syndog/sim/multistub.hpp"
#include "syndog/telemetry/rollup.hpp"
#include "syndog/telemetry/sink.hpp"
#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/config.hpp"
#include "syndog/util/strings.hpp"

using namespace syndog;
using util::SimTime;

namespace {

/// Agent id of `name` in the recorded dictionary, or -1.
int agent_index(const telemetry::TsfReader& reader, const std::string& name) {
  for (std::size_t i = 0; i < reader.agents().size(); ++i) {
    if (reader.agents()[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
  const int stubs = static_cast<int>(cfg.get_int("stubs", 3));
  const double rate_per_stub = cfg.get_double("rate_per_stub", 50.0);
  const SimTime sim_end = SimTime::minutes(cfg.get_int("minutes", 8));

  sim::MultiStubParams params;
  params.stub_count = stubs;
  params.hosts_per_stub = 12;
  sim::MultiStubSim net(params);

  sim::TcpHostParams victim_params;
  victim_params.backlog = 512;
  sim::TcpHost& victim = net.add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params);
  victim.listen(80);

  core::AlarmAggregator aggregator(
      core::SynDogParams{}.observation_period);
  std::ostringstream telemetry_bytes;
  telemetry::TelemetrySink sink(telemetry_bytes);
  core::FleetRecorder fleet(sink);
  std::vector<std::unique_ptr<core::SynDogAgent>> agents;
  for (int s = 0; s < stubs; ++s) {
    const std::string name = "stub-" + std::to_string(s);
    agents.push_back(std::make_unique<core::SynDogAgent>(
        net.router(s), net.scheduler(),
        core::SynDogParams::paper_defaults(),
        [&aggregator, name, &net](const core::AlarmEvent& ev) {
          const bool first = aggregator.alarming_stubs() == 0;
          aggregator.report(name, ev);
          std::printf("[%s] !!! %s ALARM  yn=%.2f  local share ~%.0f "
                      "SYN/s",
                      ev.at.to_string().c_str(), name.c_str(), ev.report.y,
                      aggregator.snapshot().front().estimated_rate);
          if (!ev.suspects.empty()) {
            std::printf("  station %s (%llu spoofed SYNs)",
                        ev.suspects.front().mac.to_string().c_str(),
                        static_cast<unsigned long long>(
                            ev.suspects.front().spoofed_syns));
          }
          std::printf("\n");
          if (first) {
            std::printf("            (first alarm -- watching for sibling "
                        "stubs to estimate the aggregate)\n");
          }
          (void)net;
        }));
    fleet.attach(*agents.back(), name,
                 static_cast<std::uint32_t>(64496 + s));
  }

  // Background web traffic per stub, plus the campaign from minute 2.
  util::Rng rng(11);
  for (int s = 0; s < stubs; ++s) {
    std::vector<SimTime> starts;
    double t = 0.0;
    while (t < sim_end.to_seconds()) {
      t += rng.exponential_mean(0.25);
      starts.push_back(SimTime::from_seconds(t));
    }
    net.schedule_outbound_background(s, starts);
  }
  attack::CampaignSpec campaign;
  campaign.aggregate_rate = rate_per_stub * stubs;
  campaign.stub_networks = stubs;
  campaign.start = SimTime::minutes(2);
  campaign.duration = SimTime::minutes(4);
  const attack::Campaign c(campaign, 3);
  for (int s = 0; s < stubs; ++s) {
    net.launch_flood(s,
                     c.slaves_in_stub(s)[0].host_index %
                             params.hosts_per_stub +
                         1,
                     c.flood_times_in_stub(s), victim.ip(), 80,
                     *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }

  std::printf("operator dashboard: %d stubs, campaign of %.0f SYN/s "
              "(%.0f per stub) starts at minute 2\n\n",
              stubs, campaign.aggregate_rate, rate_per_stub);
  net.run_until(sim_end);

  // The final assessment reads back the recorded telemetry: alarm counts
  // and "since" times come from the file's rollup, not from the live
  // aggregator (which must agree with it, or the run fails).
  sink.finish();
  std::istringstream telemetry_in(telemetry_bytes.str());
  const telemetry::TsfReader reader(telemetry_in);
  const telemetry::AlarmTimeline timeline =
      telemetry::alarm_timeline(reader, core::kFleetMetricAlarm);

  std::printf("\n=== final assessment ===\n");
  std::printf("%zu/%d stubs alarming; estimated aggregate %.0f SYN/s "
              "(true %.0f)\n",
              static_cast<std::size_t>(timeline.agents_alarmed), stubs,
              aggregator.estimated_aggregate_rate(),
              campaign.aggregate_rate);
  bool views_agree =
      timeline.agents_alarmed == aggregator.alarming_stubs();
  for (const auto& alarm : aggregator.snapshot()) {
    // The aggregator's `at` is the *latest* alarm report; the recorded
    // timeline carries the edges, so the cross-check is that the episode
    // started (first rising edge) no later than the live view's stamp.
    const int agent = agent_index(reader, alarm.stub_name);
    const std::optional<SimTime> onset =
        agent < 0 ? std::nullopt
                  : telemetry::first_alarm(timeline,
                                           static_cast<std::uint32_t>(agent));
    if (!onset || *onset > alarm.at) views_agree = false;
    std::printf("  %-8s ~%5.0f SYN/s  since %s  suspects:",
                alarm.stub_name.c_str(), alarm.estimated_rate,
                alarm.at.to_string().c_str());
    for (const core::Suspect& s : alarm.suspects) {
      std::printf(" %s", s.mac.to_string().c_str());
    }
    std::printf("\n");
  }
  std::printf("victim: %s SYNs dropped, backlog %zu/%zu\n",
              util::format_count(static_cast<std::int64_t>(
                  victim.stats().backlog_drops)).c_str(),
              victim.half_open_count(), victim_params.backlog);
  if (!views_agree) {
    std::fprintf(stderr, "telemetry rollup disagrees with the live "
                         "aggregator view\n");
    return 1;
  }
  return aggregator.alarming_stubs() == static_cast<std::size_t>(stubs)
             ? 0
             : 1;
}
