// Aggregate model of "the rest of the Internet".
//
// Everything beyond the leaf routers' uplinks is collapsed into one node:
// generic server space that answers segments through the shared
// responder (sim/internet.hpp), explicitly attached real hosts (e.g. a
// victim server under study), the stub networks behind their downlinks,
// and an unreachable pool — the spoofed-source address space whose
// packets vanish, so no RST ever comes back.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/internet.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {

struct CloudParams : ResponderParams {
  /// Source addresses in this prefix are unreachable (spoof pool).
  net::Ipv4Prefix unreachable_pool = *net::Ipv4Prefix::parse("240.0.0.0/8");
};

struct CloudStats : ResponderStats {
  std::uint64_t delivered_to_hosts = 0;
};

class InternetCloud {
 public:
  /// Throws std::invalid_argument on out-of-range responder parameters.
  InternetCloud(Scheduler& scheduler, CloudParams params, std::uint64_t seed);

  InternetCloud(const InternetCloud&) = delete;
  InternetCloud& operator=(const InternetCloud&) = delete;

  /// Adds a stub network behind its `downlink`. Internet routing only
  /// carries packets *destined into a stub* down its link; replies to
  /// anywhere else (in particular to spoofed flood sources) never reach
  /// the leaf router — which is exactly why the inbound sniffer sees no
  /// SYN/ACKs during a spoofed flood. Routes are checked in order.
  void add_stub_route(net::Ipv4Prefix prefix, PacketSink downlink);

  /// Creates a real Internet-side host (make_internet_host, k = hosts
  /// added so far) that takes packets to `ip`; its output re-enters
  /// route(). Throws std::invalid_argument if `ip` is inside a stub route.
  TcpHost& add_host(net::Ipv4Address ip, TcpHostParams host_params,
                    std::uint64_t seed);

  /// Handles a packet arriving from a stub network's uplink.
  void receive(const net::Packet& packet);

  /// Routes a packet that originates *inside* the cloud (a responder
  /// reply or an attached host's output): to an attached host, down a
  /// stub's link when stub-bound, into the void when unreachable, or
  /// absorbed by the rest of the Internet otherwise.
  void route(const net::Packet& packet);

  [[nodiscard]] const CloudStats& stats() const { return stats_; }

 private:
  /// Delivers to an attached host or a stub, or sinks a spoof-pool
  /// destination; false when `packet` is bound for generic space.
  bool forward(const net::Packet& packet);

  Scheduler& scheduler_;
  CloudParams params_;
  util::Rng rng_;
  std::vector<std::unique_ptr<TcpHost>> owned_hosts_;
  std::unordered_map<std::uint32_t, TcpHost*> hosts_;
  std::vector<std::pair<net::Ipv4Prefix, PacketSink>> stub_routes_;
  CloudStats stats_;
};

}  // namespace syndog::sim
