// Wire-format serialization and zero-copy parsing.
//
// Writers append network-byte-order bytes to a caller-owned buffer; parsers
// read from a span and return nullopt on truncated or malformed input (the
// classifier must never crash on hostile packets).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "syndog/net/headers.hpp"

namespace syndog::net {

using ByteSpan = std::span<const std::uint8_t>;
using ByteBuffer = std::vector<std::uint8_t>;

// --- byte-order helpers ----------------------------------------------------

[[nodiscard]] constexpr std::uint16_t byteswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

[[nodiscard]] constexpr std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) |
         (v >> 24);
}

// --- safe unaligned loads --------------------------------------------------
//
// Wire structs are never read through reinterpret_cast: that is undefined
// behavior on misaligned buffers (packet payloads start at arbitrary
// offsets). These memcpy-based readers are defined at any alignment and
// compile to a single load plus optional bswap on every mainstream target.

template <typename T>
[[nodiscard]] inline T load_raw(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

[[nodiscard]] inline std::uint16_t load_be16(const std::uint8_t* p) noexcept {
  const auto v = load_raw<std::uint16_t>(p);
  return std::endian::native == std::endian::big ? v : byteswap16(v);
}

[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  const auto v = load_raw<std::uint32_t>(p);
  return std::endian::native == std::endian::big ? v : byteswap32(v);
}

[[nodiscard]] inline std::uint16_t load_le16(const std::uint8_t* p) noexcept {
  const auto v = load_raw<std::uint16_t>(p);
  return std::endian::native == std::endian::little ? v : byteswap16(v);
}

[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  const auto v = load_raw<std::uint32_t>(p);
  return std::endian::native == std::endian::little ? v : byteswap32(v);
}

// --- big-endian primitives -------------------------------------------------

void put_u8(ByteBuffer& out, std::uint8_t v);
void put_u16(ByteBuffer& out, std::uint16_t v);
void put_u32(ByteBuffer& out, std::uint32_t v);

[[nodiscard]] inline std::uint16_t read_u16(ByteSpan in, std::size_t at) {
  return load_be16(in.data() + at);
}

[[nodiscard]] inline std::uint32_t read_u32(ByteSpan in, std::size_t at) {
  return load_be32(in.data() + at);
}

// --- checksums ---------------------------------------------------------

/// RFC 1071 Internet checksum over `data` (one's-complement sum folded to
/// 16 bits, then complemented).
[[nodiscard]] std::uint16_t internet_checksum(ByteSpan data);
/// TCP/UDP checksum including the IPv4 pseudo-header.
[[nodiscard]] std::uint16_t transport_checksum(Ipv4Address src,
                                               Ipv4Address dst,
                                               IpProtocol protocol,
                                               ByteSpan segment);

// --- serialization -------------------------------------------------------

void write_ethernet(ByteBuffer& out, const EthernetHeader& eth);
/// Writes the IPv4 header with its checksum computed (checksum field in the
/// input struct is ignored). `ihl` must be 5 (options unsupported).
void write_ipv4(ByteBuffer& out, const Ipv4Header& ip);
/// Writes the TCP header; checksum field is taken from the struct (use
/// `transport_checksum` to fill it, or leave 0 for simulated packets).
void write_tcp(ByteBuffer& out, const TcpHeader& tcp);
void write_udp(ByteBuffer& out, const UdpHeader& udp);
void write_icmp(ByteBuffer& out, const IcmpHeader& icmp);

// --- per-header rules ----------------------------------------------------
//
// Each rule returns the length of the header at the front of its span, or
// 0 when the bytes there are not a whole header of that kind. The parsers
// and check_frame() both decide with these, so no reader restates them.

/// IPv4: version 4, IHL >= 5, the IHL bytes present, and a total_length no
/// shorter than the header.
[[nodiscard]] inline std::size_t ipv4_header_bytes(ByteSpan packet) {
  if (packet.size() < Ipv4Header::kMinSize || (packet[0] >> 4) != 4) return 0;
  const std::size_t bytes = (std::size_t{packet[0]} & 0x0f) * 4;
  const bool whole = bytes >= Ipv4Header::kMinSize && packet.size() >= bytes &&
                     read_u16(packet, 2) >= bytes;
  return whole ? bytes : 0;
}

/// TCP: data offset >= 5, and the data-offset bytes present.
[[nodiscard]] inline std::size_t tcp_header_bytes(ByteSpan segment) {
  if (segment.size() < TcpHeader::kMinSize) return 0;
  const std::size_t bytes = (std::size_t{segment[12]} >> 4) * 4;
  return bytes >= TcpHeader::kMinSize && segment.size() >= bytes ? bytes : 0;
}

/// UDP: the 8-byte header present and a length field no shorter than it.
[[nodiscard]] inline std::size_t udp_header_bytes(ByteSpan datagram) {
  return datagram.size() >= UdpHeader::kSize &&
                 read_u16(datagram, 4) >= UdpHeader::kSize
             ? UdpHeader::kSize
             : 0;
}

/// ICMP: the 8-byte header present.
[[nodiscard]] inline std::size_t icmp_header_bytes(ByteSpan message) {
  return message.size() >= IcmpHeader::kSize ? IcmpHeader::kSize : 0;
}

// --- the frame check -----------------------------------------------------

/// Where the headers of a frame that check_frame() accepted sit.
struct FrameLayout {
  std::size_t transport = 0;      ///< frame offset of the transport header
  std::size_t payload_bytes = 0;  ///< IPv4 bytes past the last header read
  std::uint8_t protocol = 0;      ///< IPv4 protocol number
  bool first_fragment = false;    ///< offset 0: carries a transport header

  /// True when the frame carries a checked header of protocol `p`.
  [[nodiscard]] bool carries(IpProtocol p) const {
    return first_fragment && protocol == static_cast<std::uint8_t>(p);
  }
};

/// The one accept/reject decision for a raw Ethernet frame, under
/// decode_frame_into(), extract_flow_digest() and
/// classify::classify_frame_fast(). It accepts an IPv4 frame whose header
/// passes ipv4_header_bytes() and whose total_length fits in the captured
/// bytes, so a frame cut by the snaplen is refused. A first fragment of
/// TCP, UDP or ICMP must also hold that whole header; a later fragment or
/// another protocol is accepted with no transport header. Fills `out` on
/// acceptance, and never reads past `frame.size()`.
///
/// Forced inline: it runs once per captured frame, and at -O2 GCC would
/// otherwise call it out of line and pass the layout through memory.
[[nodiscard, gnu::always_inline]] inline bool check_frame(ByteSpan frame,
                                                         FrameLayout& out) {
  if (frame.size() < EthernetHeader::kSize ||
      read_u16(frame, 12) != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    return false;
  }
  const ByteSpan ip = frame.subspan(EthernetHeader::kSize);
  const std::size_t ip_bytes = ipv4_header_bytes(ip);
  if (ip_bytes == 0 || read_u16(ip, 2) > ip.size()) return false;
  out.transport = EthernetHeader::kSize + ip_bytes;
  out.payload_bytes = read_u16(ip, 2) - ip_bytes;
  out.protocol = ip[9];
  // Only the first fragment carries the transport header.
  out.first_fragment = (read_u16(ip, 6) & Ipv4Header::kFragOffsetMask) == 0;
  if (!out.first_fragment) return true;
  const ByteSpan transport = ip.subspan(ip_bytes, out.payload_bytes);
  std::size_t header = 0;
  switch (out.protocol) {
    case static_cast<std::uint8_t>(IpProtocol::kTcp):
      header = tcp_header_bytes(transport);
      break;
    case static_cast<std::uint8_t>(IpProtocol::kUdp):
      header = udp_header_bytes(transport);
      break;
    case static_cast<std::uint8_t>(IpProtocol::kIcmp):
      header = icmp_header_bytes(transport);
      break;
    default:
      return true;  // unknown transport: accepted, nothing to read
  }
  out.payload_bytes -= header;
  return header != 0;
}

// --- parsing -----------------------------------------------------------
//
// read_* copy a header's fields and check nothing: the caller has already
// accepted the bytes, by the rules above or by check_frame().

[[nodiscard]] EthernetHeader read_ethernet(ByteSpan frame);
[[nodiscard]] Ipv4Header read_ipv4(ByteSpan packet);
[[nodiscard]] TcpHeader read_tcp(ByteSpan segment);
[[nodiscard]] UdpHeader read_udp(ByteSpan datagram);
[[nodiscard]] IcmpHeader read_icmp(ByteSpan message);

}  // namespace syndog::net
