#include "syndog/sim/internet.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace syndog::sim {

net::MacAddress internet_gateway_mac() {
  return net::MacAddress::for_host(0xFFFFFEu);
}

net::Ipv4Address draw_generic_server(util::Rng& rng) {
  return net::Ipv4Address{
      static_cast<std::uint32_t>(0x80000000u + rng.next_u32() % 0x20000000u)};
}

std::unique_ptr<TcpHost> make_internet_host(
    net::Ipv4Address ip, std::uint32_t k, Scheduler& scheduler,
    PacketSink send, TcpHostParams params, std::uint64_t seed) {
  return std::make_unique<TcpHost>(
      ip, net::MacAddress::for_host(0xE00000u + k), internet_gateway_mac(),
      scheduler, std::move(send), params,
      util::splitmix64(seed ^ (0xE000u + std::uint64_t{k})));
}

void ResponderParams::validate() const {
  if (!(no_answer_probability >= 0.0 && no_answer_probability < 1.0)) {
    throw std::invalid_argument(
        "Internet responder: no_answer_probability in [0,1)");
  }
  if (!(rtt_median_s > 0.0) || !(rtt_sigma >= 0.0)) {
    throw std::invalid_argument(
        "Internet responder: rtt_median_s > 0 and rtt_sigma >= 0 required");
  }
}

std::optional<ResponderReply> answer_segment(const net::Packet& segment,
                                             const ResponderParams& params,
                                             util::Rng& rng,
                                             ResponderStats& stats) {
  if (!segment.tcp) {
    ++stats.absorbed_elsewhere;
    return std::nullopt;
  }
  const net::TcpFlags flags = segment.tcp->flags;
  net::TcpPacketSpec spec;
  spec.src_mac = internet_gateway_mac();
  spec.dst_mac = segment.eth.src;
  spec.src_ip = segment.ip.dst;
  spec.dst_ip = segment.ip.src;
  spec.src_port = segment.tcp->dst_port;
  spec.dst_port = segment.tcp->src_port;
  spec.seq = segment.tcp->ack;
  spec.ack = segment.tcp->seq + 1;
  if (flags.syn() && !flags.ack()) {
    ++stats.syns_seen;
    if (rng.bernoulli(params.no_answer_probability)) {
      ++stats.unanswered;
      return std::nullopt;
    }
    spec.flags = net::TcpFlags::syn_ack();
    spec.seq = rng.next_u32();
    ++stats.syn_acks_generated;
  } else if (flags.syn()) {
    spec.flags = net::TcpFlags::ack_only();
  } else if (flags.fin()) {
    spec.flags = net::TcpFlags::fin_ack();
  } else {
    // Final ACKs, data and RSTs terminate silently at the generic space;
    // nothing about them matters to the handshake counts SYN-dog sees.
    ++stats.absorbed_elsewhere;
    return std::nullopt;
  }
  const double rtt_s =
      params.rtt_sigma > 0.0
          ? rng.lognormal(std::log(params.rtt_median_s), params.rtt_sigma)
          : params.rtt_median_s;
  return ResponderReply{net::make_tcp_packet(spec),
                        util::SimTime::from_seconds(rtt_s)};
}

}  // namespace syndog::sim
