#include "syndog/sim/router.hpp"

#include <stdexcept>
#include <string>

namespace syndog::sim {

LeafRouter::LeafRouter(net::Ipv4Prefix stub_prefix, net::MacAddress mac)
    : stub_prefix_(stub_prefix), mac_(mac) {}

void LeafRouter::attach_host(net::Ipv4Address ip, Deliver deliver) {
  if (!stub_prefix_.contains(ip)) {
    throw std::invalid_argument("LeafRouter: host " + ip.to_string() +
                                " outside stub prefix " +
                                stub_prefix_.to_string());
  }
  if (!deliver) {
    throw std::invalid_argument("LeafRouter: deliver callback required");
  }
  hosts_[ip.value()] = std::move(deliver);
}

void LeafRouter::set_uplink(Deliver deliver) {
  uplink_ = std::move(deliver);
}

void LeafRouter::add_outbound_tap(Tap tap) {
  outbound_taps_.push_back(std::move(tap));
}

void LeafRouter::add_inbound_tap(Tap tap) {
  inbound_taps_.push_back(std::move(tap));
}

void LeafRouter::forward_from_intranet(util::SimTime now,
                                       const net::Packet& packet) {
  // Local-to-local traffic never crosses the leaf router's interfaces.
  if (stub_prefix_.contains(packet.ip.dst)) {
    if (const auto it = hosts_.find(packet.ip.dst.value());
        it != hosts_.end()) {
      it->second(packet);
    } else {
      ++stats_.dropped_no_route;
    }
    return;
  }

  if (taps_enabled_) {
    for (const Tap& tap : outbound_taps_) tap(now, packet);
  } else if (!outbound_taps_.empty()) {
    ++stats_.tap_suppressed;
  }

  if (egress_policer_ && egress_policer_(now, packet)) {
    ++stats_.dropped_policer;
    return;
  }
  if (ingress_filtering_ && !stub_prefix_.contains(packet.ip.src)) {
    ++stats_.dropped_ingress_filter;
    return;
  }
  if (uplink_) {
    ++stats_.forwarded_outbound;
    uplink_(packet);
  }
}

void LeafRouter::forward_from_internet(util::SimTime now,
                                       const net::Packet& packet) {
  if (!taps_enabled_) {
    if (!inbound_taps_.empty()) ++stats_.tap_suppressed;
  } else if (inbound_tap_bypass_ && inbound_tap_bypass_(now, packet)) {
    // Asymmetric routing: the packet reaches its host via another path,
    // invisible to the monitored interface.
    ++stats_.inbound_tap_bypassed;
  } else {
    for (const Tap& tap : inbound_taps_) tap(now, packet);
  }
  const auto it = hosts_.find(packet.ip.dst.value());
  if (it == hosts_.end()) {
    ++stats_.dropped_no_route;
    return;
  }
  ++stats_.forwarded_inbound;
  it->second(packet);
}

}  // namespace syndog::sim
