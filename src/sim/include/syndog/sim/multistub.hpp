// Multi-stub Internet simulation.
//
// Several stub networks — each with its own leaf router, LAN, and up/down
// delay links — share one Internet cloud and (typically) one victim.
// This is the paper's full distributed-DDoS setting in one event loop:
// a campaign places a slave in every stub, and every stub's first-mile
// SYN-dog independently sees its share f_i = V / A_s of the aggregate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "syndog/sim/cloud.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/stub_site.hpp"
#include "syndog/sim/tcp_host.hpp"

namespace syndog::sim {

struct MultiStubParams {
  int stub_count = 3;
  std::uint32_t hosts_per_stub = 25;
  util::SimTime lan_delay = util::SimTime::microseconds(100);
  util::SimTime uplink_delay = util::SimTime::milliseconds(10);
  util::SimTime downlink_delay = util::SimTime::milliseconds(10);
  CloudParams cloud;
  TcpHostParams host_params;
  std::uint64_t seed = 1;
};

class MultiStubSim {
 public:
  explicit MultiStubSim(MultiStubParams params);

  MultiStubSim(const MultiStubSim&) = delete;
  MultiStubSim& operator=(const MultiStubSim&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] InternetCloud& cloud() { return *cloud_; }
  [[nodiscard]] int stub_count() const { return params_.stub_count; }

  /// Stub `s` occupies 10.(s+1).0.0/16.
  [[nodiscard]] net::Ipv4Prefix stub_prefix(int stub) const;
  [[nodiscard]] LeafRouter& router(int stub);
  /// Host `index` of stub `stub`. Indices are **1-based**: valid range
  /// [1, hosts_per_stub], because offset 0 of the stub prefix is the
  /// (unaddressable) base address. Throws std::out_of_range naming the
  /// violated range on either a bad stub or a bad host index — index 0
  /// is always rejected, it never aliases host 1.
  [[nodiscard]] TcpHost& host(int stub, std::uint32_t index);

  /// Attaches a shared Internet-side host (e.g. the campaign's victim).
  TcpHost& add_internet_host(net::Ipv4Address ip, TcpHostParams host_params);

  /// Background connections from random hosts of `stub` to generic
  /// remote servers (StubSite::schedule_host_background).
  void schedule_outbound_background(
      int stub, const std::vector<util::SimTime>& start_times);

  /// Spoofed-source flood from one compromised host of `stub`.
  void launch_flood(int stub, std::uint32_t host_index,
                    const std::vector<util::SimTime>& syn_times,
                    net::Ipv4Address victim, std::uint16_t victim_port,
                    net::Ipv4Prefix spoof_pool);

  void run_until(util::SimTime end) { scheduler_.run_until(end); }

 private:
  struct Stub {
    std::unique_ptr<StubSite> site;
    std::unique_ptr<Link> uplink;
    std::unique_ptr<Link> downlink;
  };

  /// Throws std::out_of_range naming [0, stub_count) on a bad `stub`.
  void check_stub(int stub) const;
  [[nodiscard]] StubSite& site(int stub);

  MultiStubParams params_;
  Scheduler scheduler_;
  std::unique_ptr<InternetCloud> cloud_;
  std::vector<Stub> stubs_;
  util::Rng workload_rng_;
  util::Rng flood_rng_;
};

}  // namespace syndog::sim
