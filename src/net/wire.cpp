#include "syndog/net/wire.hpp"

#include <cstring>
#include <stdexcept>

namespace syndog::net {

void put_u8(ByteBuffer& out, std::uint8_t v) { out.push_back(v); }

void put_u16(ByteBuffer& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(ByteBuffer& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t internet_checksum(ByteSpan data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += load_be16(data.data() + i);
  }
  if (i < data.size()) {
    sum += std::uint32_t{data[i]} << 8;  // odd trailing byte, zero-padded
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst,
                                 IpProtocol protocol, ByteSpan segment) {
  ByteBuffer pseudo;
  pseudo.reserve(12 + segment.size());
  put_u32(pseudo, src.value());
  put_u32(pseudo, dst.value());
  put_u8(pseudo, 0);
  put_u8(pseudo, static_cast<std::uint8_t>(protocol));
  put_u16(pseudo, static_cast<std::uint16_t>(segment.size()));
  pseudo.insert(pseudo.end(), segment.begin(), segment.end());
  return internet_checksum(pseudo);
}

void write_ethernet(ByteBuffer& out, const EthernetHeader& eth) {
  out.insert(out.end(), eth.dst.bytes().begin(), eth.dst.bytes().end());
  out.insert(out.end(), eth.src.bytes().begin(), eth.src.bytes().end());
  put_u16(out, eth.ether_type);
}

void write_ipv4(ByteBuffer& out, const Ipv4Header& ip) {
  if (ip.ihl != 5) {
    throw std::invalid_argument("write_ipv4: IP options are unsupported");
  }
  const std::size_t start = out.size();
  put_u8(out, static_cast<std::uint8_t>((ip.version << 4) | ip.ihl));
  put_u8(out, ip.dscp_ecn);
  put_u16(out, ip.total_length);
  put_u16(out, ip.identification);
  put_u16(out, ip.frag_flags_offset);
  put_u8(out, ip.ttl);
  put_u8(out, ip.protocol);
  put_u16(out, 0);  // checksum placeholder
  put_u32(out, ip.src.value());
  put_u32(out, ip.dst.value());
  const std::uint16_t sum = internet_checksum(
      ByteSpan{out.data() + start, Ipv4Header::kMinSize});
  out[start + 10] = static_cast<std::uint8_t>(sum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(sum);
}

void write_tcp(ByteBuffer& out, const TcpHeader& tcp) {
  if (tcp.data_offset < 5) {
    throw std::invalid_argument("write_tcp: data_offset must be >= 5");
  }
  put_u16(out, tcp.src_port);
  put_u16(out, tcp.dst_port);
  put_u32(out, tcp.seq);
  put_u32(out, tcp.ack);
  put_u8(out, static_cast<std::uint8_t>(tcp.data_offset << 4));
  put_u8(out, tcp.flags.bits);
  put_u16(out, tcp.window);
  put_u16(out, tcp.checksum);
  put_u16(out, tcp.urgent_pointer);
  // Pad options area with zero bytes (end-of-option-list).
  for (std::size_t i = TcpHeader::kMinSize; i < tcp.header_bytes(); ++i) {
    put_u8(out, 0);
  }
}

void write_udp(ByteBuffer& out, const UdpHeader& udp) {
  put_u16(out, udp.src_port);
  put_u16(out, udp.dst_port);
  put_u16(out, udp.length);
  put_u16(out, udp.checksum);
}

void write_icmp(ByteBuffer& out, const IcmpHeader& icmp) {
  put_u8(out, icmp.type);
  put_u8(out, icmp.code);
  put_u16(out, icmp.checksum);
  put_u32(out, icmp.rest);
}

EthernetHeader read_ethernet(ByteSpan frame) {
  EthernetHeader eth;
  std::array<std::uint8_t, 6> dst{};
  std::array<std::uint8_t, 6> src{};
  std::memcpy(dst.data(), frame.data(), 6);
  std::memcpy(src.data(), frame.data() + 6, 6);
  eth.dst = MacAddress{dst};
  eth.src = MacAddress{src};
  eth.ether_type = read_u16(frame, 12);
  return eth;
}

Ipv4Header read_ipv4(ByteSpan packet) {
  Ipv4Header ip;
  ip.version = packet[0] >> 4;
  ip.ihl = packet[0] & 0x0f;
  ip.dscp_ecn = packet[1];
  ip.total_length = read_u16(packet, 2);
  ip.identification = read_u16(packet, 4);
  ip.frag_flags_offset = read_u16(packet, 6);
  ip.ttl = packet[8];
  ip.protocol = packet[9];
  ip.checksum = read_u16(packet, 10);
  ip.src = Ipv4Address{read_u32(packet, 12)};
  ip.dst = Ipv4Address{read_u32(packet, 16)};
  return ip;
}

TcpHeader read_tcp(ByteSpan segment) {
  TcpHeader tcp;
  tcp.src_port = read_u16(segment, 0);
  tcp.dst_port = read_u16(segment, 2);
  tcp.seq = read_u32(segment, 4);
  tcp.ack = read_u32(segment, 8);
  tcp.data_offset = segment[12] >> 4;
  tcp.flags = TcpFlags{static_cast<std::uint8_t>(segment[13] & 0x3f)};
  tcp.window = read_u16(segment, 14);
  tcp.checksum = read_u16(segment, 16);
  tcp.urgent_pointer = read_u16(segment, 18);
  return tcp;
}

UdpHeader read_udp(ByteSpan datagram) {
  return UdpHeader{read_u16(datagram, 0), read_u16(datagram, 2),
                   read_u16(datagram, 4), read_u16(datagram, 6)};
}

IcmpHeader read_icmp(ByteSpan message) {
  return IcmpHeader{message[0], message[1], read_u16(message, 2),
                    read_u32(message, 4)};
}

}  // namespace syndog::net
