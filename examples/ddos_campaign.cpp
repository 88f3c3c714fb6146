// Distributed campaign study (paper §4.2.3).
//
// A master spreads a V = 14,000 SYN/s aggregate flood (enough to disable
// a firewalled server [8]) evenly over A_s stub networks. Two views:
//
//  1. the defender's: as A_s grows, the per-stub rate f_i = V/A_s falls
//     toward each site's detection floor — the table shows how many
//     UNC- or Auckland-sized stubs the attacker must compromise before
//     SYN-dog stops seeing them (378 / ~8,000 in the paper);
//  2. the victim's: what the same aggregate does to a victim with a plain
//     backlog vs a SYN cache — and why those stateful defenses still
//     can't name the sources, while every participating stub's SYN-dog
//     can.
//
//   $ ddos_campaign
#include <cstdio>

#include "syndog/attack/campaign.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/sim/victim_defense.hpp"
#include "syndog/trace/periods.hpp"
#include "syndog/trace/site.hpp"
#include "syndog/util/strings.hpp"
#include "syndog/util/table.hpp"

using namespace syndog;

namespace {

/// Detection probability at one participating stub of a campaign spread
/// over `stubs` networks (a handful of trials).
double stub_detection_probability(const trace::SiteSpec& spec,
                                  const attack::CampaignSpec& campaign,
                                  int trials) {
  int detected = 0;
  for (int t = 0; t < trials; ++t) {
    trace::PeriodSeries ps = trace::extract_periods(
        trace::generate_site_trace(spec, 500 + t),
        trace::kObservationPeriod);
    const attack::Campaign c(campaign, 900 + t);
    ps.add_outbound_syns(trace::bucket_times(c.flood_times_in_stub(0),
                                             ps.period, ps.size()));
    const auto reports = core::run_over_series(
        core::SynDogParams::paper_defaults(), ps.out_syn, ps.in_syn_ack);
    const std::int64_t onset = campaign.start / ps.period;
    const std::int64_t fend = std::min<std::int64_t>(
        (campaign.start + campaign.duration) / ps.period,
        static_cast<std::int64_t>(ps.size()) - 1);
    for (std::int64_t n = onset; n <= fend; ++n) {
      if (reports[static_cast<std::size_t>(n)].alarm) {
        ++detected;
        break;
      }
    }
  }
  return static_cast<double>(detected) / trials;
}

}  // namespace

int main() {
  std::printf("=== the attacker's hiding trade-off ===\n");
  std::printf("aggregate V = 14,000 SYN/s spread over A_s stubs; one "
              "slave per stub\n\n");

  util::TextTable table({"A_s (stubs)", "f_i = V/A_s (SYN/s)",
                         "UNC stub detects", "Auckland stub detects"});
  trace::SiteSpec unc = trace::site_spec(trace::SiteId::kUnc);
  trace::SiteSpec auckland = trace::site_spec(trace::SiteId::kAuckland);
  // Shorten Auckland to its first hour to keep the demo quick.
  auckland.duration = util::SimTime::hours(1);

  for (const std::int64_t stubs : {100LL, 200LL, 378LL, 800LL, 4000LL,
                                   8000LL, 16000LL}) {
    attack::CampaignSpec campaign;
    campaign.aggregate_rate = attack::kFirewalledServerRate;
    campaign.stub_networks = stubs;
    campaign.start = util::SimTime::minutes(4);
    campaign.duration = util::SimTime::minutes(10);
    const double fi = campaign.per_stub_rate();
    const double p_unc = stub_detection_probability(unc, campaign, 5);
    const double p_auck =
        stub_detection_probability(auckland, campaign, 5);
    table.add_row({util::format_count(stubs), util::format_double(fi, 2),
                   util::format_double(p_unc, 2),
                   util::format_double(p_auck, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\npaper: hiding from UNC-sized stubs needs A_s > %lld; from\n"
      "Auckland-sized stubs A_s > %lld -- compromising hosts in that many\n"
      "distinct stub networks is the hard part (root access required).\n",
      static_cast<long long>(attack::max_hiding_stubs(
          attack::kFirewalledServerRate, 37.0)),
      static_cast<long long>(attack::max_hiding_stubs(
          attack::kFirewalledServerRate, 1.75)));

  // --- the victim's view --------------------------------------------------
  std::printf("\n=== meanwhile at the victim ===\n");
  std::printf("60 s of the aggregate flood vs a 1024-entry backlog, with "
              "~200 legitimate conn/s:\n\n");

  sim::SynCache plain(1024);
  util::Rng rng(4242);
  std::uint64_t legit_total = 0;
  std::uint64_t legit_completed = 0;
  // Tick per millisecond: 14 spoofed SYNs + 0.2 legitimate ones.
  std::vector<std::pair<sim::ConnKey, util::SimTime>> pending;
  for (int ms = 0; ms < 60000; ++ms) {
    const util::SimTime now = util::SimTime::milliseconds(ms);
    for (int i = 0; i < 14; ++i) {
      (void)plain.admit(sim::ConnKey{net::Ipv4Address{rng.next_u32()},
                                     static_cast<std::uint16_t>(
                                         rng.uniform_int(1024, 65535)),
                                     80},
                        now);
    }
    if (rng.bernoulli(0.2)) {
      ++legit_total;
      const sim::ConnKey key{net::Ipv4Address{0x0b000000u + rng.next_u32() %
                                              65536},
                             static_cast<std::uint16_t>(
                                 rng.uniform_int(1024, 65535)),
                             80};
      (void)plain.admit(key, now);
      pending.emplace_back(key, now + util::SimTime::milliseconds(120));
    }
    // Legitimate ACKs return one RTT later.
    while (!pending.empty() && pending.front().second <= now) {
      if (plain.complete(pending.front().first)) ++legit_completed;
      pending.erase(pending.begin());
    }
    (void)plain.expire(now, util::SimTime::seconds(75));
  }
  std::printf(
      "SYN cache (stateful): %llu admitted, %llu evicted; legitimate "
      "handshakes completed: %llu / %llu (%.1f%%)\n",
      static_cast<unsigned long long>(plain.stats().admitted),
      static_cast<unsigned long long>(plain.stats().evictions),
      static_cast<unsigned long long>(legit_completed),
      static_cast<unsigned long long>(legit_total),
      legit_total ? 100.0 * legit_completed / legit_total : 0.0);

  // SYN cookies keep zero state -- but pay per-SYN computation and still
  // learn nothing about where the flood comes from.
  sim::SynCookieCodec codec(0x5ec2e7);
  std::uint64_t verified = 0;
  for (int i = 0; i < 100000; ++i) {
    const sim::ConnKey key{net::Ipv4Address{rng.next_u32()},
                           static_cast<std::uint16_t>(
                               rng.uniform_int(1024, 65535)),
                           80};
    const std::uint32_t isn = rng.next_u32();
    const std::uint32_t cookie = codec.make(key, isn, 1);
    verified += codec.verify(key, isn, cookie, 1);
  }
  std::printf(
      "SYN cookies (stateless at the victim): %llu/100000 make+verify "
      "cycles ok -- but 14,000/s of them is pure overhead, and the victim\n"
      "still needs IP traceback to find the sources. SYN-dog at each leaf "
      "router names the slave's MAC directly.\n",
      static_cast<unsigned long long>(verified));
  return 0;
}
