// TCP control-segment classification, exactly as paper §2 describes:
//
//   1. check that the IP packet contains a TCP header (protocol == 6, and
//      fragment offset == 0 — only first fragments carry the TCP header);
//   2. compute the offset of the TCP flag bits inside the IP packet;
//   3. read the six flag bits to determine the segment type.
//
// `classify_frame_fast` performs those steps with direct offset arithmetic
// on the raw bytes — no allocation, no full header decode — which is what
// makes the sniffer cheap enough to run at line rate on a leaf router. It
// reads only frames that net::check_frame accepts, the same frames the
// ingest decoders accept.
#pragma once

#include <cstdint>
#include <string_view>

#include "syndog/net/packet.hpp"

namespace syndog::classify {

/// The segment taxonomy the sniffers count. kNotTcp covers non-IPv4,
/// non-TCP, and non-first-fragment packets alike: none of them can be
/// classified by TCP flags.
enum class SegmentKind : std::uint8_t {
  kSyn = 0,      ///< SYN set, ACK clear: connection request
  kSynAck = 1,   ///< SYN and ACK set: connection acceptance
  kFin = 2,      ///< FIN set (any ACK): teardown
  kRst = 3,      ///< RST set: reset
  kPureAck = 4,  ///< ACK only, no payload-relevant flags
  kData = 5,     ///< any other valid TCP segment
  kNotTcp = 6,
};
inline constexpr std::size_t kSegmentKindCount = 7;

[[nodiscard]] std::string_view to_string(SegmentKind kind);

/// Classifies from already-parsed flags. RST takes precedence over FIN
/// (a RST|FIN segment is a reset); SYN takes precedence over both, matching
/// how endpoint stacks interpret such segments.
[[nodiscard]] SegmentKind classify_flags(net::TcpFlags flags);

/// Classifies a logical packet (simulator path).
[[nodiscard]] SegmentKind classify_packet(const net::Packet& packet);

/// Classifies a raw Ethernet frame (capture path) using the three-step
/// procedure above; never reads past `frame.size()`. A frame that
/// net::decode_frame_into refuses is kNotTcp; any other frame gets the
/// kind classify_packet gives its decoded packet.
[[nodiscard]] SegmentKind classify_frame_fast(net::ByteSpan frame);

/// Per-kind counters; what each SYN-dog sniffer accumulates per period.
struct SegmentCounters {
  std::uint64_t counts[kSegmentKindCount] = {};

  void add(SegmentKind kind) {
    ++counts[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t count(SegmentKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t syn() const { return count(SegmentKind::kSyn); }
  [[nodiscard]] std::uint64_t syn_ack() const {
    return count(SegmentKind::kSynAck);
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts) sum += c;
    return sum;
  }
  void reset() {
    for (std::uint64_t& c : counts) c = 0;
  }
  SegmentCounters& operator+=(const SegmentCounters& rhs) {
    for (std::size_t i = 0; i < kSegmentKindCount; ++i) {
      counts[i] += rhs.counts[i];
    }
    return *this;
  }
};

}  // namespace syndog::classify
