// Leaf router connecting a stub network to the Internet.
//
// The router forwards by destination prefix and exposes *interface taps* —
// callbacks invoked for every packet crossing the outbound or inbound
// interface. SYN-dog's two sniffers attach to these taps (paper Fig. 2).
// An optional RFC 2267 ingress filter can drop outgoing packets whose
// source address is not inside the stub prefix, the countermeasure §4.2.3
// says an alarm should trigger.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

struct RouterStats {
  std::uint64_t forwarded_outbound = 0;
  std::uint64_t forwarded_inbound = 0;
  std::uint64_t dropped_no_route = 0;       ///< inbound dst not in host table
  std::uint64_t dropped_ingress_filter = 0; ///< outbound spoofed-src drops
  std::uint64_t dropped_policer = 0;        ///< outbound egress-policer drops
  std::uint64_t tap_suppressed = 0;         ///< packets unseen: taps disabled
  std::uint64_t inbound_tap_bypassed = 0;   ///< diverted around inbound tap
};

class LeafRouter {
 public:
  using Tap = PacketTap;
  using Deliver = PacketSink;

  LeafRouter(net::Ipv4Prefix stub_prefix, net::MacAddress mac);

  [[nodiscard]] net::MacAddress mac() const { return mac_; }
  [[nodiscard]] const net::Ipv4Prefix& stub_prefix() const {
    return stub_prefix_;
  }

  /// Registers an intranet host for inbound delivery.
  void attach_host(net::Ipv4Address ip, Deliver deliver);
  /// Sets the uplink toward the Internet.
  void set_uplink(Deliver deliver);

  /// Taps fire before forwarding (and before the ingress filter, so the
  /// sniffer sees exactly what the wire carries into the router).
  void add_outbound_tap(Tap tap);
  void add_inbound_tap(Tap tap);

  /// Sniffer/tap outage (fault layer): while disabled, forwarding
  /// continues but no tap fires — the monitoring span port is dead, so
  /// counters gap. Suppressed packets are counted in stats().
  void set_taps_enabled(bool enabled) { taps_enabled_ = enabled; }

  /// Asymmetric-routing fault: packets for which `bypass` returns true are
  /// forwarded without firing the inbound taps, as if they returned via a
  /// different leaf router and rejoined the LAN behind the monitored
  /// interface. nullptr disables.
  using TapBypass = PacketFilter;
  void set_inbound_tap_bypass(TapBypass bypass) {
    inbound_tap_bypass_ = std::move(bypass);
  }

  /// Alarm-driven response seam (mitigate::MitigationController):
  /// consulted for every outbound packet after the taps fire (the
  /// sniffers keep seeing the wire) and before the ingress filter;
  /// return true to drop. nullptr disables.
  using EgressPolicer = PacketFilter;
  void set_egress_policer(EgressPolicer policer) {
    egress_policer_ = std::move(policer);
  }

  void set_ingress_filtering(bool enabled) { ingress_filtering_ = enabled; }
  [[nodiscard]] bool ingress_filtering() const { return ingress_filtering_; }

  /// Entry points: a frame arriving from the intranet LAN / the uplink.
  void forward_from_intranet(util::SimTime now, const net::Packet& packet);
  void forward_from_internet(util::SimTime now, const net::Packet& packet);

  [[nodiscard]] const RouterStats& stats() const { return stats_; }

 private:
  net::Ipv4Prefix stub_prefix_;
  net::MacAddress mac_;
  std::unordered_map<std::uint32_t, Deliver> hosts_;
  Deliver uplink_;
  std::vector<Tap> outbound_taps_;
  std::vector<Tap> inbound_taps_;
  bool taps_enabled_ = true;
  TapBypass inbound_tap_bypass_;
  EgressPolicer egress_policer_;
  bool ingress_filtering_ = false;
  RouterStats stats_;
};

}  // namespace syndog::sim
