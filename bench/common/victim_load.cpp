#include "common/victim_load.hpp"

#include <algorithm>

namespace syndog::bench {

namespace {

sim::StubNetworkParams net_params(const VictimLoadConfig& cfg) {
  sim::StubNetworkParams params;
  params.num_hosts = cfg.num_hosts;
  params.seed = cfg.seed;
  // Deterministic victim reachability: goodput differences must come
  // from the backlog (and any mitigation), not from cloud loss.
  params.cloud.no_answer_probability = 0.0;
  return params;
}

}  // namespace

VictimLoadHarness::VictimLoadHarness(const VictimLoadConfig& cfg)
    : net_(net_params(cfg)) {
  victim_ =
      &net_.add_internet_host(cfg.victim_ip, cfg.victim_params);
  victim_->listen(80);

  util::Rng rng(cfg.seed);
  for (double t = cfg.legit_start_s; t < cfg.legit_end_s;
       t += rng.exponential_mean(cfg.legit_interarrival_mean_s)) {
    const auto client =
        static_cast<std::uint32_t>(rng.uniform_int(1, cfg.num_hosts));
    net_.scheduler().schedule_at(util::SimTime::from_seconds(t),
                                 [this, client, ip = victim_->ip()] {
                                   net_.host(client).connect(ip, 80);
                                 });
    attempt_times_.push_back(t);
  }

  if (cfg.flood_rate > 0.0) {
    attack::FloodSpec flood;
    flood.rate = cfg.flood_rate;
    flood.start = cfg.flood_start;
    flood.duration = cfg.flood_duration;
    util::Rng frng(cfg.seed ^ 0xf);
    net_.launch_flood(cfg.flood_host,
                      attack::generate_flood_times(flood, frng),
                      victim_->ip(), 80, cfg.spoof_pool);
  }

  if (cfg.background_rate > 0.0) {
    util::Rng brng(cfg.seed ^ 0xb);
    std::vector<util::SimTime> times;
    for (double t = cfg.legit_start_s; t < cfg.legit_end_s;
         t += brng.exponential_mean(1.0 / cfg.background_rate)) {
      times.push_back(util::SimTime::from_seconds(t));
    }
    net_.schedule_outbound_background(times);
  }
}

std::size_t VictimLoadHarness::attempts_between(double from_s,
                                                double to_s) const {
  const auto lo = std::lower_bound(attempt_times_.begin(),
                                   attempt_times_.end(), from_s);
  const auto hi =
      std::lower_bound(attempt_times_.begin(), attempt_times_.end(), to_s);
  return static_cast<std::size_t>(hi - lo);
}

std::uint64_t VictimLoadHarness::established_total() {
  std::uint64_t established = 0;
  for (std::uint32_t h = 1; h <= net_.host_count(); ++h) {
    established += net_.host(h).stats().established_as_client;
  }
  return established;
}

}  // namespace syndog::bench
