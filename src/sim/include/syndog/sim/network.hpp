// Assembled stub-network simulation (the testbed of paper Fig. 6).
//
// Wires together: N intranet hosts on a LAN, the leaf router with its
// interface taps, up/down delay links, and the Internet cloud (with
// optional real remote hosts such as a victim server). Provides workload
// drivers for background connections in both directions, flood agents on
// compromised stub hosts, and replay of pre-rendered packet traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/sim/cloud.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/stub_site.hpp"
#include "syndog/sim/tcp_host.hpp"

namespace syndog::sim {

struct StubNetworkParams {
  net::Ipv4Prefix stub_prefix = *net::Ipv4Prefix::parse("10.1.0.0/16");
  std::uint32_t num_hosts = 50;
  util::SimTime lan_delay = util::SimTime::microseconds(100);
  /// Link delays router -> Internet (up) and Internet -> router (down).
  util::SimTime uplink_delay = util::SimTime::milliseconds(10);
  util::SimTime downlink_delay = util::SimTime::milliseconds(10);
  CloudParams cloud;
  TcpHostParams host_params;
  std::uint64_t seed = 1;
};

class StubNetworkSim {
 public:
  explicit StubNetworkSim(StubNetworkParams params);

  StubNetworkSim(const StubNetworkSim&) = delete;
  StubNetworkSim& operator=(const StubNetworkSim&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] LeafRouter& router() { return site_->router(); }
  [[nodiscard]] InternetCloud& cloud() { return *cloud_; }
  /// The router->Internet / Internet->router links (fault-injection
  /// attachment points).
  [[nodiscard]] Link& uplink() { return *uplink_; }
  [[nodiscard]] Link& downlink() { return *downlink_; }
  [[nodiscard]] const StubNetworkParams& params() const { return params_; }

  /// Intranet host by index in [1, num_hosts]. Index i has address
  /// stub_prefix.host(i) and MAC MacAddress::for_host(i).
  [[nodiscard]] TcpHost& host(std::uint32_t index) {
    return site_->host(index);
  }
  [[nodiscard]] std::uint32_t host_count() const {
    return params_.num_hosts;
  }

  /// Creates a real host on the Internet side (e.g. the victim server).
  TcpHost& add_internet_host(net::Ipv4Address ip, TcpHostParams host_params);

  /// Background workload: at each start time, a random stub host opens a
  /// connection to a random generic remote server (port 80).
  void schedule_outbound_background(
      const std::vector<util::SimTime>& start_times);
  /// Mirror direction: generic remote clients connect to random listening
  /// stub hosts. `server_port` must have been opened via make_servers().
  void schedule_inbound_background(
      const std::vector<util::SimTime>& start_times,
      std::uint16_t server_port = 80);
  /// Puts every stub host in LISTEN on `port`.
  void make_servers(std::uint16_t port = 80);

  /// Flood agent on stub host `host_index` (StubSite::launch_flood),
  /// drawing from the sim's flood rng.
  void launch_flood(std::uint32_t host_index,
                    const std::vector<util::SimTime>& syn_times,
                    net::Ipv4Address victim, std::uint16_t victim_port,
                    net::Ipv4Prefix spoof_pool);

  /// Replays pre-rendered frames at the router interfaces: packets whose
  /// source lies inside the stub prefix enter from the intranet, all
  /// others from the Internet. (Trace-driven mode: the endpoints are in
  /// the trace, not simulated.)
  void replay_at_router(util::SimTime at, const net::Packet& packet);

  void run_until(util::SimTime end) { scheduler_.run_until(end); }

 private:
  StubNetworkParams params_;
  Scheduler scheduler_;
  std::unique_ptr<StubSite> site_;
  std::unique_ptr<Link> uplink_;
  std::unique_ptr<Link> downlink_;
  std::unique_ptr<InternetCloud> cloud_;
  util::Rng workload_rng_;
  util::Rng flood_rng_;
};

}  // namespace syndog::sim
