// Interface sniffers (paper Fig. 2).
//
// A Sniffer watches one router interface and counts the one segment kind
// its role requires: the outbound sniffer counts pure SYNs leaving the
// stub, the inbound sniffer counts SYN/ACKs entering. Counting is the only
// state — a fixed number of integers regardless of traffic, so the agent
// cannot be exhausted by the very attack it watches for.
#pragma once

#include <cstdint>

#include "syndog/classify/segment.hpp"
#include "syndog/net/packet.hpp"

namespace syndog::core {

enum class SnifferRole : std::uint8_t {
  kOutbound,  ///< counts outgoing SYNs
  kInbound,   ///< counts incoming SYN/ACKs
};

class Sniffer {
 public:
  explicit Sniffer(SnifferRole role) : role_(role) {}


  /// Classifies a logical packet (capture frames arrive decoded). Returns
  /// the classification so callers (e.g. the agent's telemetry) need not
  /// classify twice.
  classify::SegmentKind on_packet(const net::Packet& packet) {
    const classify::SegmentKind kind = classify::classify_packet(packet);
    note(kind);
    return kind;
  }

  /// Count accumulated in the current observation period.
  [[nodiscard]] std::uint64_t period_count() const { return period_count_; }
  /// Ends the period: returns the period's count and starts a new one.
  std::uint64_t harvest() {
    const std::uint64_t n = period_count_;
    period_count_ = 0;
    return n;
  }

  [[nodiscard]] std::uint64_t lifetime_count() const {
    return lifetime_count_;
  }
  /// All packets shown to this sniffer, counted or not.
  [[nodiscard]] std::uint64_t packets_seen() const { return packets_seen_; }

 private:
  void note(classify::SegmentKind kind) {
    ++packets_seen_;
    const bool counted =
        role_ == SnifferRole::kOutbound
            ? kind == classify::SegmentKind::kSyn
            : kind == classify::SegmentKind::kSynAck;
    if (counted) {
      ++period_count_;
      ++lifetime_count_;
    }
  }

  SnifferRole role_;
  std::uint64_t period_count_ = 0;
  std::uint64_t lifetime_count_ = 0;
  std::uint64_t packets_seen_ = 0;
};

}  // namespace syndog::core
