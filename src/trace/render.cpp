#include "syndog/trace/render.hpp"

#include <algorithm>
#include <stdexcept>

namespace syndog::trace {

namespace {

constexpr std::uint16_t kServerPorts[] = {80, 443, 25, 110, 21, 22, 53, 8080};
/// Hosts each handshake's endpoints are drawn from, uniformly: offsets
/// 1..kStubHosts of the stub prefix, 1..kInternetHosts of the Internet's.
constexpr std::int64_t kStubHosts = 250;
constexpr std::int64_t kInternetHosts = 4096;

struct Endpoints {
  net::Ipv4Address client_ip;
  net::Ipv4Address server_ip;
  net::MacAddress client_mac;  ///< MAC on the stub side of the frame
  net::MacAddress server_mac;
  std::uint16_t client_port;
  std::uint16_t server_port;
};

/// Picks addresses for one handshake. The stub endpoint is the client for
/// outbound connections and the server for inbound ones.
Endpoints pick_endpoints(const Handshake& hs, const RenderConfig& cfg,
                         util::Rng& rng) {
  const std::uint32_t stub_host =
      static_cast<std::uint32_t>(rng.uniform_int(1, kStubHosts));
  const std::uint32_t inet_host =
      static_cast<std::uint32_t>(rng.uniform_int(1, kInternetHosts));
  const net::Ipv4Address stub_ip = cfg.stub_prefix.host(stub_host);
  const net::Ipv4Address inet_ip = cfg.internet_prefix.host(inet_host);

  Endpoints ep;
  ep.client_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  ep.server_port = kServerPorts[static_cast<std::size_t>(
      rng.uniform_int(0, std::size(kServerPorts) - 1))];
  if (hs.direction == Direction::kOutbound) {
    ep.client_ip = stub_ip;
    ep.server_ip = inet_ip;
    ep.client_mac = net::MacAddress::for_host(stub_host);
    ep.server_mac = cfg.router_mac;
  } else {
    ep.client_ip = inet_ip;
    ep.server_ip = stub_ip;
    ep.client_mac = cfg.router_mac;
    ep.server_mac = net::MacAddress::for_host(stub_host);
  }
  return ep;
}

}  // namespace

std::vector<TimedPacket> render_trace(const ConnectionTrace& trace,
                                      const RenderConfig& config) {
  util::Rng rng{config.seed};
  std::vector<TimedPacket> out;
  out.reserve(trace.total_syns() + 2 * trace.total_syn_acks());

  for (const Handshake& hs : trace.handshakes) {
    const Endpoints ep = pick_endpoints(hs, config, rng);
    const std::uint32_t client_isn = rng.next_u32();
    const std::uint32_t server_isn = rng.next_u32();

    net::TcpPacketSpec spec;
    spec.src_mac = ep.client_mac;
    spec.dst_mac = ep.server_mac;
    spec.src_ip = ep.client_ip;
    spec.dst_ip = ep.server_ip;
    spec.src_port = ep.client_port;
    spec.dst_port = ep.server_port;
    spec.seq = client_isn;
    for (util::SimTime at : hs.syn_times) {
      out.push_back({at, net::make_syn(spec)});
    }

    if (hs.syn_ack_time) {
      net::TcpPacketSpec reply;
      reply.src_mac = ep.server_mac;
      reply.dst_mac = ep.client_mac;
      reply.src_ip = ep.server_ip;
      reply.dst_ip = ep.client_ip;
      reply.src_port = ep.server_port;
      reply.dst_port = ep.client_port;
      reply.seq = server_isn;
      reply.ack = client_isn + 1;
      out.push_back({*hs.syn_ack_time, net::make_syn_ack(reply)});

      if (config.emit_final_ack) {
        net::TcpPacketSpec ack = spec;
        ack.flags = net::TcpFlags::ack_only();
        ack.seq = client_isn + 1;
        ack.ack = server_isn + 1;
        // The ACK leaves the client half an RTT after the SYN/ACK arrives;
        // reuse the SYN->SYN/ACK gap as the RTT estimate.
        const util::SimTime rtt = *hs.syn_ack_time - hs.syn_times.back();
        out.push_back({*hs.syn_ack_time + util::SimTime{rtt.ns() / 2},
                       net::make_tcp_packet(ack)});
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const TimedPacket& a, const TimedPacket& b) {
              return a.at < b.at;
            });
  return out;
}

std::vector<TimedPacket> render_attack(
    const std::vector<util::SimTime>& syn_times,
    const AttackRenderConfig& config) {
  if (config.attacker_hosts.empty()) {
    throw std::invalid_argument("render_attack: need at least one attacker");
  }
  util::Rng rng{config.seed};
  std::vector<TimedPacket> out;
  out.reserve(syn_times.size());
  const std::uint64_t pool = config.spoof_pool.size();

  for (util::SimTime at : syn_times) {
    const std::uint32_t attacker = config.attacker_hosts[
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.attacker_hosts.size()) - 1))];
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(attacker);
    spec.dst_mac = config.router_mac;
    // Spoofed, unreachable source: the victim's SYN/ACKs go nowhere, so no
    // RST ever resets the half-open connection (paper §1).
    spec.src_ip = config.spoof_pool.host(static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(pool - 2))));
    spec.dst_ip = config.victim;
    spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    spec.dst_port = config.victim_port;
    spec.seq = rng.next_u32();
    out.push_back({at, net::make_syn(spec)});
  }
  return out;
}

std::vector<TimedPacket> merge_packets(std::vector<TimedPacket> a,
                                       std::vector<TimedPacket> b) {
  std::vector<TimedPacket> out;
  out.reserve(a.size() + b.size());
  std::merge(std::make_move_iterator(a.begin()),
             std::make_move_iterator(a.end()),
             std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()), std::back_inserter(out),
             [](const TimedPacket& x, const TimedPacket& y) {
               return x.at < y.at;
             });
  return out;
}

}  // namespace syndog::trace
