#include "syndog/sim/cloud.hpp"

#include <stdexcept>

namespace syndog::sim {

InternetCloud::InternetCloud(Scheduler& scheduler, CloudParams params,
                             std::uint64_t seed)
    : scheduler_(scheduler), params_(params), rng_(seed) {
  params_.validate();
}

void InternetCloud::add_stub_route(net::Ipv4Prefix prefix,
                                   PacketSink downlink) {
  if (!downlink) {
    throw std::invalid_argument("InternetCloud: downlink required");
  }
  stub_routes_.emplace_back(prefix, std::move(downlink));
}

TcpHost& InternetCloud::add_host(net::Ipv4Address ip,
                                 TcpHostParams host_params,
                                 std::uint64_t seed) {
  for (const auto& route : stub_routes_) {
    if (route.first.contains(ip)) {
      throw std::invalid_argument(
          "InternetCloud: Internet-side host inside a stub prefix");
    }
  }
  owned_hosts_.push_back(make_internet_host(
      ip, static_cast<std::uint32_t>(owned_hosts_.size()), scheduler_,
      [this](const net::Packet& pkt) { route(pkt); }, host_params, seed));
  TcpHost* host = owned_hosts_.back().get();
  hosts_[ip.value()] = host;
  return *host;
}

bool InternetCloud::forward(const net::Packet& packet) {
  // A real attached host (e.g. the victim server) takes precedence.
  if (const auto it = hosts_.find(packet.ip.dst.value());
      it != hosts_.end()) {
    ++stats_.delivered_to_hosts;
    it->second->receive(packet);
    return true;
  }
  // Destinations inside a known stub network are routed there, not
  // answered by the generic server space (cross-stub traffic).
  for (const auto& [prefix, downlink] : stub_routes_) {
    if (prefix.contains(packet.ip.dst)) {
      downlink(packet);
      return true;
    }
  }
  if (params_.unreachable_pool.contains(packet.ip.dst)) {
    // Replies to spoofed sources die in the core; crucially, they never
    // transit our leaf router's inbound interface, and no RST comes back.
    ++stats_.dropped_unreachable;
    return true;
  }
  return false;
}

void InternetCloud::receive(const net::Packet& packet) {
  if (forward(packet)) return;
  auto reply = answer_segment(packet, params_, rng_, stats_);
  if (!reply) return;
  scheduler_.schedule_after(
      reply->rtt,
      [this, h = scheduler_.packets().acquire(std::move(reply->packet))] {
        route(*h);
      });
}

void InternetCloud::route(const net::Packet& packet) {
  if (!forward(packet)) ++stats_.absorbed_elsewhere;
}

}  // namespace syndog::sim
