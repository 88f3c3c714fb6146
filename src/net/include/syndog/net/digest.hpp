// Packed per-frame flow digest for the sharded ingest datapath.
//
// decode_frame_into() materializes a full logical Packet — MACs, checksum
// fields, transport optionals — which is far more than the SYN-dog
// counting path needs per frame: a timestamp, the IPv4 endpoints, the
// ports (for flow hashing), and the TCP flag byte. FlowDigest is that
// minimal record, sized to half a cache line so shard rings carry twice
// as many frames per line as Frame slots would.
//
// extract_flow_digest() and decode_frame_into() both decide with
// check_frame() (wire.hpp), so a sharded run's record/frame/decode-failure
// statistics are byte-identical to the reference pipeline's. Frames that
// decode but carry no classifiable TCP flags (fragments with nonzero
// offset, UDP, ICMP, unknown protocols) get kNoTcpFlags as their flag
// byte: bit 7 is outside the six RFC 793 flag bits that wire parsing
// keeps, and it fails both the SYN and the SYN-ACK mask tests in
// classify::sweep_flags().
#pragma once

#include <cstddef>
#include <cstdint>

#include "syndog/net/headers.hpp"
#include "syndog/net/wire.hpp"

namespace syndog::net {

/// One frame, reduced to what flow hashing and §2 flag counting need.
struct FlowDigest {
  /// Flag byte standing in for "no TCP flags to classify". Never produced
  /// by read_tcp (which masks to the six low bits); masks to 0 under the
  /// SYN|ACK test, so flag sweeps count such frames as neither kind.
  static constexpr std::uint8_t kNoTcpFlags = 0x80;

  std::int64_t at_ns = 0;            ///< capture timestamp (framer fills)
  std::uint32_t src = 0;             ///< IPv4 source, host order
  std::uint32_t dst = 0;             ///< IPv4 destination, host order
  std::uint16_t src_port = 0;        ///< 0 unless first-fragment TCP/UDP
  std::uint16_t dst_port = 0;        ///< 0 unless first-fragment TCP/UDP
  std::uint32_t wire_bytes = 0;      ///< original length on the wire
  std::uint32_t captured_bytes = 0;  ///< bytes present in the capture
  std::uint8_t protocol = 0;         ///< IPv4 protocol number
  std::uint8_t flags = kNoTcpFlags;  ///< TCP flag byte (6 bits) or sentinel
};

/// Fills `out` from a raw Ethernet frame. Returns false — leaving `out`
/// unspecified — on exactly the frames check_frame() refuses. The caller
/// stamps at_ns / wire_bytes; captured_bytes is set to frame.size().
///
/// Defined inline: this runs once per captured frame on the sharded
/// producer thread, and the call would otherwise cross a library
/// boundary the optimizer cannot see through.
[[nodiscard]] inline bool extract_flow_digest(ByteSpan frame,
                                              FlowDigest& out) {
  FrameLayout at;
  if (!check_frame(frame, at)) return false;
  out.src = read_u32(frame, EthernetHeader::kSize + 12);
  out.dst = read_u32(frame, EthernetHeader::kSize + 16);
  out.protocol = at.protocol;
  out.captured_bytes = static_cast<std::uint32_t>(frame.size());
  const bool tcp = at.carries(IpProtocol::kTcp);
  const bool ports = tcp || at.carries(IpProtocol::kUdp);
  out.src_port = ports ? read_u16(frame, at.transport) : 0;
  out.dst_port = ports ? read_u16(frame, at.transport + 2) : 0;
  // The six RFC 793 flag bits, as read_tcp keeps them.
  out.flags = tcp ? frame[at.transport + 13] & 0x3f : FlowDigest::kNoTcpFlags;
  return true;
}

}  // namespace syndog::net
