#include "syndog/net/packet.hpp"

#include <stdexcept>

#include "syndog/util/strings.hpp"

namespace syndog::net {

std::size_t Packet::frame_bytes() const {
  return EthernetHeader::kSize + ip.total_length;
}

Packet make_tcp_packet(const TcpPacketSpec& spec) {
  Packet pkt;
  pkt.eth.src = spec.src_mac;
  pkt.eth.dst = spec.dst_mac;
  pkt.eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);

  pkt.ip.src = spec.src_ip;
  pkt.ip.dst = spec.dst_ip;
  pkt.ip.ttl = spec.ttl;
  pkt.ip.protocol = static_cast<std::uint8_t>(IpProtocol::kTcp);

  TcpHeader tcp;
  tcp.src_port = spec.src_port;
  tcp.dst_port = spec.dst_port;
  tcp.seq = spec.seq;
  tcp.ack = spec.ack;
  tcp.flags = spec.flags;
  pkt.tcp = tcp;

  pkt.payload_bytes = spec.payload_bytes;
  const std::size_t ip_len =
      Ipv4Header::kMinSize + tcp.header_bytes() + spec.payload_bytes;
  if (ip_len > UINT16_MAX) {
    throw std::invalid_argument("make_tcp_packet: payload too large");
  }
  pkt.ip.total_length = static_cast<std::uint16_t>(ip_len);
  return pkt;
}

Packet make_syn(const TcpPacketSpec& spec) {
  TcpPacketSpec s = spec;
  s.flags = TcpFlags::syn_only();
  s.ack = 0;
  return make_tcp_packet(s);
}

Packet make_syn_ack(const TcpPacketSpec& spec) {
  TcpPacketSpec s = spec;
  s.flags = TcpFlags::syn_ack();
  return make_tcp_packet(s);
}

Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac,
                       Ipv4Address src_ip, Ipv4Address dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::size_t payload_bytes) {
  Packet pkt;
  pkt.eth.src = src_mac;
  pkt.eth.dst = dst_mac;
  pkt.ip.src = src_ip;
  pkt.ip.dst = dst_ip;
  pkt.ip.protocol = static_cast<std::uint8_t>(IpProtocol::kUdp);

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  const std::size_t udp_len = UdpHeader::kSize + payload_bytes;
  if (Ipv4Header::kMinSize + udp_len > UINT16_MAX) {
    throw std::invalid_argument("make_udp_packet: payload too large");
  }
  udp.length = static_cast<std::uint16_t>(udp_len);
  pkt.udp = udp;
  pkt.payload_bytes = payload_bytes;
  pkt.ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kMinSize + udp_len);
  return pkt;
}

ByteBuffer encode_frame(const Packet& packet) {
  ByteBuffer out;
  out.reserve(packet.frame_bytes());
  write_ethernet(out, packet.eth);
  write_ipv4(out, packet.ip);

  if (packet.tcp) {
    // Render the TCP segment separately to compute its checksum over the
    // pseudo-header + segment (payload rendered as zeros).
    TcpHeader tcp = *packet.tcp;
    tcp.checksum = 0;
    ByteBuffer segment;
    segment.reserve(tcp.header_bytes() + packet.payload_bytes);
    write_tcp(segment, tcp);
    segment.resize(segment.size() + packet.payload_bytes, 0);
    tcp.checksum = transport_checksum(packet.ip.src, packet.ip.dst,
                                      IpProtocol::kTcp, segment);
    segment[16] = static_cast<std::uint8_t>(tcp.checksum >> 8);
    segment[17] = static_cast<std::uint8_t>(tcp.checksum);
    out.insert(out.end(), segment.begin(), segment.end());
  } else if (packet.udp) {
    UdpHeader udp = *packet.udp;
    udp.checksum = 0;
    ByteBuffer datagram;
    datagram.reserve(udp.length);
    write_udp(datagram, udp);
    datagram.resize(udp.length, 0);
    udp.checksum = transport_checksum(packet.ip.src, packet.ip.dst,
                                      IpProtocol::kUdp, datagram);
    if (udp.checksum == 0) udp.checksum = 0xffff;  // RFC 768: 0 means none
    datagram[6] = static_cast<std::uint8_t>(udp.checksum >> 8);
    datagram[7] = static_cast<std::uint8_t>(udp.checksum);
    out.insert(out.end(), datagram.begin(), datagram.end());
  } else if (packet.icmp) {
    IcmpHeader icmp = *packet.icmp;
    icmp.checksum = 0;
    ByteBuffer message;
    write_icmp(message, icmp);
    message.resize(IcmpHeader::kSize + packet.payload_bytes, 0);
    icmp.checksum = internet_checksum(message);
    message[2] = static_cast<std::uint8_t>(icmp.checksum >> 8);
    message[3] = static_cast<std::uint8_t>(icmp.checksum);
    out.insert(out.end(), message.begin(), message.end());
  } else {
    // Opaque payload for unsupported protocols.
    out.resize(out.size() +
                   (packet.ip.total_length - packet.ip.header_bytes()),
               0);
  }
  return out;
}

bool decode_frame_into(ByteSpan frame, Packet& out) {
  FrameLayout at;
  if (!check_frame(frame, at)) return false;
  out.eth = read_ethernet(frame);
  out.ip = read_ipv4(frame.subspan(EthernetHeader::kSize));
  out.tcp.reset();
  out.udp.reset();
  out.icmp.reset();
  out.payload_bytes = at.payload_bytes;
  const ByteSpan transport = frame.subspan(at.transport);
  if (at.carries(IpProtocol::kTcp)) {
    out.tcp = read_tcp(transport);
  } else if (at.carries(IpProtocol::kUdp)) {
    out.udp = read_udp(transport);
  } else if (at.carries(IpProtocol::kIcmp)) {
    out.icmp = read_icmp(transport);
  }
  return true;
}

}  // namespace syndog::net
