// One stub network's LAN side: the leaf router and its 1-based host table.
//
// StubNetworkSim, MultiStubSim and campaign::CampaignSim all build their
// stubs from this, and run its two workloads (host-stack background and
// a raw-socket flood agent) on Rngs they pass in. Each simulator keeps
// the Internet side: links and cloud, or the campaign's responder.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "syndog/net/address.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

/// A simulator's addressing plan for one stub (outputs pin each
/// simulator's MACs and seeds, so the site takes it as given).
struct StubAddressing {
  net::MacAddress router_mac;
  /// Host i has MAC MacAddress::for_host(host_mac_base + i)
  std::uint32_t host_mac_base = 0;
  /// and TcpHost seed splitmix64(seed ^ (host_seed_base + i)).
  std::uint64_t host_seed_base = 0;
};

class StubSite {
 public:
  /// `scheduler` runs the stub's events and must outlive the site.
  StubSite(Scheduler& scheduler, net::Ipv4Prefix prefix,
           std::uint32_t host_count, util::SimTime lan_delay,
           StubAddressing addressing, TcpHostParams host_params,
           std::uint64_t seed);

  StubSite(const StubSite&) = delete;
  StubSite& operator=(const StubSite&) = delete;

  [[nodiscard]] LeafRouter& router() { return router_; }
  [[nodiscard]] const LeafRouter& router() const { return router_; }
  [[nodiscard]] net::Ipv4Prefix prefix() const {
    return router_.stub_prefix();
  }
  [[nodiscard]] std::uint32_t host_count() const { return host_count_; }
  [[nodiscard]] net::MacAddress host_mac(std::uint32_t index) const {
    return net::MacAddress::for_host(addressing_.host_mac_base + index);
  }

  /// Host `index` in [1, host_count], at prefix().host(index) (offset 0
  /// is the unaddressable base). The host, and the table, are built on
  /// first use, wired to the router through the LAN delay both ways.
  /// Throws std::out_of_range naming the valid range.
  [[nodiscard]] TcpHost& host(std::uint32_t index);

  /// Hands `packet` to the router's Internet side at `at`.
  void deliver_from_internet(util::SimTime at, const net::Packet& packet);

  /// Host-stack background: at each start, a random host connects to a
  /// random generic server on port 80 (draws: host index, then server).
  void schedule_host_background(const std::vector<util::SimTime>& starts,
                                util::Rng& rng);

  /// Flood agent: host `index` emits raw spoofed-source SYNs toward
  /// victim:victim_port, bypassing its TCP stack like a raw-socket attack
  /// daemon (the host is not built). Each SYN's source (from
  /// `spoof_pool`), sport and seq are drawn at launch, in that order; it
  /// reaches the router at its time plus the LAN delay.
  ///
  /// The flood is a cursor: its SYNs wait in one array, and one pending
  /// event fires the next and schedules its successor. Each SYN keeps the
  /// schedule-order stamp it would have had if every SYN had been
  /// scheduled at launch (Scheduler::reserve), so unsorted or tied
  /// `syn_times` fire in the same order as they would then.
  void launch_flood(std::uint32_t index,
                    const std::vector<util::SimTime>& syn_times,
                    net::Ipv4Address victim, std::uint16_t victim_port,
                    net::Ipv4Prefix spoof_pool, util::Rng& rng);

 private:
  /// One flood SYN's launch-time draws. `order` is its index in the
  /// caller's syn_times, so its stamp is the flood's first stamp plus
  /// `order`.
  struct FloodSyn {
    util::SimTime at;  ///< arrival at the router (time plus LAN delay)
    net::Ipv4Address spoofed;
    std::uint32_t seq;
    std::uint32_t order;
    std::uint16_t sport;
  };
  /// A launched flood: its SYNs in (time, stamp) order and the cursor of
  /// the next to fire. The array is freed once the last SYN has fired.
  struct Flood {
    std::vector<FloodSyn> syns;
    std::size_t next = 0;
    std::uint64_t first_stamp = 0;
    std::uint32_t host_index = 0;
    net::Ipv4Address victim;
    std::uint16_t victim_port = 0;
  };

  void check_index(std::uint32_t index) const;
  /// Schedules flood `f`'s next SYN; its event captures the flood's index,
  /// not a pointer, because a later launch may grow floods_.
  void schedule_flood_syn(std::size_t f);
  void fire_flood_syn(std::size_t f);

  Scheduler& scheduler_;
  LeafRouter router_;
  std::uint32_t host_count_;
  util::SimTime lan_delay_;
  StubAddressing addressing_;
  TcpHostParams host_params_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<TcpHost>> hosts_;  ///< [index - 1]
  std::vector<Flood> floods_;                    ///< in launch order
};

}  // namespace syndog::sim
