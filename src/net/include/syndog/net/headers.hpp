// Host-order representations of the protocol headers SYN-dog inspects.
//
// These structs are the parsed/logical view; `wire.hpp` converts to and from
// network byte order. Field names follow RFC 791 / RFC 793.
#pragma once

#include <cstdint>
#include <string>

#include "syndog/net/address.hpp"

namespace syndog::net {

enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kIpv6 = 0x86dd,
};

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
};

enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;
  /// Fragment-offset field mask within frag_flags_offset.
  static constexpr std::uint16_t kFragOffsetMask = 0x1fff;

  std::uint8_t version = 4;
  std::uint8_t ihl = 5;  ///< header length in 32-bit words (5 = no options)
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;  ///< header + payload, bytes
  std::uint16_t identification = 0;
  std::uint16_t frag_flags_offset = 0;  ///< 3 flag bits + 13 offset bits
  std::uint8_t ttl = 64;
  std::uint8_t protocol = static_cast<std::uint8_t>(IpProtocol::kTcp);
  std::uint16_t checksum = 0;
  Ipv4Address src;
  Ipv4Address dst;

  [[nodiscard]] std::size_t header_bytes() const {
    return static_cast<std::size_t>(ihl) * 4;
  }
  /// Fragment offset in 8-byte units. SYN-dog's classifier only reads TCP
  /// flags from packets with zero offset (first fragments), per paper §2.
  [[nodiscard]] std::uint16_t fragment_offset() const {
    return frag_flags_offset & kFragOffsetMask;
  }
};

/// TCP flag bits as laid out in byte 13 of the TCP header (RFC 793).
struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
  static constexpr std::uint8_t kUrg = 0x20;

  std::uint8_t bits = 0;

  [[nodiscard]] constexpr bool fin() const { return (bits & kFin) != 0; }
  [[nodiscard]] constexpr bool syn() const { return (bits & kSyn) != 0; }
  [[nodiscard]] constexpr bool rst() const { return (bits & kRst) != 0; }
  [[nodiscard]] constexpr bool psh() const { return (bits & kPsh) != 0; }
  [[nodiscard]] constexpr bool ack() const { return (bits & kAck) != 0; }
  [[nodiscard]] constexpr bool urg() const { return (bits & kUrg) != 0; }

  [[nodiscard]] static constexpr TcpFlags syn_only() {
    return TcpFlags{kSyn};
  }
  [[nodiscard]] static constexpr TcpFlags syn_ack() {
    return TcpFlags{static_cast<std::uint8_t>(kSyn | kAck)};
  }
  [[nodiscard]] static constexpr TcpFlags ack_only() {
    return TcpFlags{kAck};
  }
  [[nodiscard]] static constexpr TcpFlags rst_only() {
    return TcpFlags{kRst};
  }
  [[nodiscard]] static constexpr TcpFlags fin_ack() {
    return TcpFlags{static_cast<std::uint8_t>(kFin | kAck)};
  }

  /// "SYN|ACK" style rendering for logs.
  [[nodiscard]] std::string to_string() const;

  constexpr bool operator==(const TcpFlags&) const = default;
};

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  ///< header length in 32-bit words
  TcpFlags flags;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;
  std::uint16_t urgent_pointer = 0;

  [[nodiscard]] std::size_t header_bytes() const {
    return static_cast<std::size_t>(data_offset) * 4;
  }
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  ///< header + payload, bytes
  std::uint16_t checksum = 0;
};

struct IcmpHeader {
  static constexpr std::size_t kSize = 8;
  static constexpr std::uint8_t kEchoReply = 0;
  static constexpr std::uint8_t kDestUnreachable = 3;
  static constexpr std::uint8_t kEchoRequest = 8;
  static constexpr std::uint8_t kTimeExceeded = 11;

  std::uint8_t type = kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint32_t rest = 0;  ///< identifier/sequence or unused, type-specific
};

}  // namespace syndog::net
