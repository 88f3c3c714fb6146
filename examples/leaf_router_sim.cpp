// Full leaf-router scenario (the paper's Fig. 6, live):
//
// a stub network of 40 hosts browses the Internet; at minute 4 a
// compromised host starts a spoofed-source SYN flood against an external
// victim. The SYN-dog agent on the leaf router detects the flood from
// the SYN / SYN-ACK imbalance, names the flooding station by MAC address,
// and triggers RFC 2267 ingress filtering that squelches the attack.
//
//   $ leaf_router_sim [key=value ...]      e.g. flood_rate=60 hosts=80
#include <cstdio>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/util/config.hpp"

int main(int argc, char** argv) {
  using namespace syndog;
  using util::SimTime;

  const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
  const auto hosts =
      static_cast<std::uint32_t>(cfg.get_int("hosts", 40));
  const double conn_rate = cfg.get_double("conn_rate", 8.0);
  const double flood_rate = cfg.get_double("flood_rate", 45.0);
  const auto attacker =
      static_cast<std::uint32_t>(cfg.get_int("attacker", 17));
  const SimTime sim_end = SimTime::minutes(cfg.get_int("minutes", 12));

  sim::StubNetworkParams params;
  params.num_hosts = hosts;
  params.uplink_delay = SimTime::milliseconds(5);
  params.downlink_delay = SimTime::milliseconds(5);
  params.cloud.no_answer_probability = 0.04;
  sim::StubNetworkSim network(params);

  std::printf("leaf router for %s: %u hosts, ~%.1f conn/s of web traffic\n",
              params.stub_prefix.to_string().c_str(), hosts, conn_rate);

  // SYN-dog agent: alarm callback reports evidence and flips on ingress
  // filtering (paper §4.2.3).
  bool reported = false;
  core::SynDogAgent agent(
      network.router(), network.scheduler(),
      core::SynDogParams::paper_defaults(),
      [&](const core::AlarmEvent& ev) {
        if (!reported) {
          reported = true;
          std::printf(
              "\n[%s] *** SYN-dog ALARM: yn = %.2f > N = 1.05 "
              "(period %lld: %lld SYNs out, %lld SYN/ACKs in)\n",
              ev.at.to_string().c_str(), ev.report.y,
              static_cast<long long>(ev.report.period_index),
              static_cast<long long>(ev.report.syn_count),
              static_cast<long long>(ev.report.syn_ack_count));
          std::printf("    suspects by MAC (spoofed SYNs emitted):\n");
          for (const core::Suspect& s : ev.suspects) {
            std::printf("      %s  spoofed=%llu total=%llu\n",
                        s.mac.to_string().c_str(),
                        static_cast<unsigned long long>(s.spoofed_syns),
                        static_cast<unsigned long long>(s.total_syns));
          }
          std::printf("    -> enabling ingress filtering on the stub\n\n");
        }
        network.router().set_ingress_filtering(true);
      });

  // Background web traffic for the whole run.
  util::Rng rng(1);
  std::vector<SimTime> starts;
  double t = 0.0;
  while (t < sim_end.to_seconds()) {
    t += rng.exponential_mean(1.0 / conn_rate);
    starts.push_back(SimTime::from_seconds(t));
  }
  network.schedule_outbound_background(starts);

  // The flood: spoofed sources, external victim.
  attack::FloodSpec flood;
  flood.rate = flood_rate;
  flood.start = SimTime::minutes(4);
  flood.duration = SimTime::minutes(6);
  util::Rng flood_rng(2);
  network.launch_flood(attacker,
                       attack::generate_flood_times(flood, flood_rng),
                       net::Ipv4Address(198, 51, 100, 10), 80,
                       *net::Ipv4Prefix::parse("240.0.0.0/8"));
  std::printf(
      "host %u (%s) will flood 198.51.100.10:80 at %.0f SYN/s from minute "
      "4\n\n",
      attacker, net::MacAddress::for_host(attacker).to_string().c_str(),
      flood_rate);

  network.run_until(sim_end);

  std::printf("per-period trace (t0 = 20 s):\n");
  std::printf("  n   SYN  SYN/ACK     Xn      yn\n");
  for (const core::PeriodReport& r : agent.history()) {
    std::printf("%3lld  %5lld  %5lld  %+.3f  %6.3f %s\n",
                static_cast<long long>(r.period_index),
                static_cast<long long>(r.syn_count),
                static_cast<long long>(r.syn_ack_count), r.x, r.y,
                r.alarm ? "ALARM" : "");
  }

  const auto& rstats = network.router().stats();
  std::printf(
      "\nrouter: %llu outbound, %llu inbound, %llu spoofed frames dropped "
      "by ingress filter after the alarm\n",
      static_cast<unsigned long long>(rstats.forwarded_outbound),
      static_cast<unsigned long long>(rstats.forwarded_inbound),
      static_cast<unsigned long long>(rstats.dropped_ingress_filter));
  std::printf("cloud: %llu SYN/ACK replies to spoofed sources died "
              "unreachable (no RST ever reset the victim's slots)\n",
              static_cast<unsigned long long>(
                  network.cloud().stats().dropped_unreachable));
  return agent.ever_alarmed() ? 0 : 1;
}
