// Whole-frame composition and decomposition.
//
// `Packet` is the logical unit the simulator, pcap writer, and classifier
// exchange: an Ethernet/IPv4 frame with an optional transport header. The
// builder fills lengths and checksums; `decode_frame_into` is the inverse.
#pragma once

#include <cstdint>
#include <optional>

#include "syndog/net/headers.hpp"
#include "syndog/net/wire.hpp"

namespace syndog::net {

/// Logical packet: link + network headers, exactly one transport header
/// (or none for unsupported protocols), and the payload byte count.
struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::size_t payload_bytes = 0;

  [[nodiscard]] bool is_tcp() const { return tcp.has_value(); }
  /// Pure SYN (no ACK): a connection request.
  [[nodiscard]] bool is_syn() const {
    return tcp && tcp->flags.syn() && !tcp->flags.ack();
  }
  [[nodiscard]] bool is_syn_ack() const {
    return tcp && tcp->flags.syn() && tcp->flags.ack();
  }
  [[nodiscard]] bool is_fin() const { return tcp && tcp->flags.fin(); }

  /// Total frame size on the wire in bytes.
  [[nodiscard]] std::size_t frame_bytes() const;
};

/// Common parameters for building TCP test/simulation packets.
struct TcpPacketSpec {
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::size_t payload_bytes = 0;
  std::uint8_t ttl = 64;
};

/// Builds a TCP packet with consistent lengths. Checksums are computed when
/// the frame is serialized.
[[nodiscard]] Packet make_tcp_packet(const TcpPacketSpec& spec);
[[nodiscard]] Packet make_syn(const TcpPacketSpec& spec);
[[nodiscard]] Packet make_syn_ack(const TcpPacketSpec& spec);
// syndog-lint: allow-next-line(api.test_only) -- fixture builder for the non-TCP frames tests feed the codec, classifier and router
[[nodiscard]] Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac,
                                     Ipv4Address src_ip, Ipv4Address dst_ip,
                                     std::uint16_t src_port,
                                     std::uint16_t dst_port,
                                     std::size_t payload_bytes);

/// Serializes to wire format. The payload is rendered as zero bytes (the
/// detector never inspects payloads); transport checksums are computed over
/// that rendering so the frames verify as valid captures.
[[nodiscard]] ByteBuffer encode_frame(const Packet& packet);

/// Parses a wire-format frame into `out` (resetting its transport
/// optionals) and returns true on success, so streaming consumers decode
/// directly into recycled packet slots. Returns false on the frames
/// check_frame() refuses, leaving `out` in an unspecified state; a valid
/// IPv4 packet with an unsupported transport protocol decodes with all
/// transport optionals empty.
[[nodiscard]] bool decode_frame_into(ByteSpan frame, Packet& out);

}  // namespace syndog::net
