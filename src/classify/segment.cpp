#include "syndog/classify/segment.hpp"

namespace syndog::classify {

std::string_view to_string(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kSyn:
      return "SYN";
    case SegmentKind::kSynAck:
      return "SYN/ACK";
    case SegmentKind::kFin:
      return "FIN";
    case SegmentKind::kRst:
      return "RST";
    case SegmentKind::kPureAck:
      return "ACK";
    case SegmentKind::kData:
      return "DATA";
    case SegmentKind::kNotTcp:
      return "non-TCP";
  }
  return "?";
}

SegmentKind classify_flags(net::TcpFlags flags) {
  if (flags.syn()) {
    return flags.ack() ? SegmentKind::kSynAck : SegmentKind::kSyn;
  }
  if (flags.rst()) return SegmentKind::kRst;
  if (flags.fin()) return SegmentKind::kFin;
  if (flags.ack() && !flags.psh() && !flags.urg()) {
    return SegmentKind::kPureAck;
  }
  return SegmentKind::kData;
}

SegmentKind classify_packet(const net::Packet& packet) {
  if (!packet.tcp) return SegmentKind::kNotTcp;
  if (packet.ip.fragment_offset() != 0) return SegmentKind::kNotTcp;
  const SegmentKind kind = classify_flags(packet.tcp->flags);
  // A pure ACK carrying payload is a data segment.
  if (kind == SegmentKind::kPureAck && packet.payload_bytes > 0) {
    return SegmentKind::kData;
  }
  return kind;
}

SegmentKind classify_frame_fast(net::ByteSpan frame) {
  // Step 1: TCP protocol and zero fragment offset, on a frame the decoders
  // accept.
  net::FrameLayout at;
  if (!net::check_frame(frame, at) || !at.carries(net::IpProtocol::kTcp)) {
    return SegmentKind::kNotTcp;
  }
  // Steps 2 and 3: the six flag bits at the TCP header's offset.
  const SegmentKind kind = classify_flags(net::TcpFlags{
      static_cast<std::uint8_t>(frame[at.transport + 13] & 0x3f)});
  // A pure ACK carrying payload is a data segment.
  if (kind == SegmentKind::kPureAck && at.payload_bytes > 0) {
    return SegmentKind::kData;
  }
  return kind;
}

}  // namespace syndog::classify
