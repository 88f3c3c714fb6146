// Telemetry binding for the control-segment classifier.
//
// The classifier itself (segment.hpp) stays a pure function — cheapness at
// line rate is the paper's §2 design point. SegmentMetrics is the optional
// observer a sniffer attaches next to it: one cached obs::Counter per
// segment kind, so exact totals cost one add per packet.
#pragma once

#include <string_view>

#include "syndog/classify/segment.hpp"
#include "syndog/obs/metrics.hpp"

namespace syndog::classify {

/// Lowercase metric-path segment for a kind ("syn", "syn_ack", ...);
/// to_string() in segment.hpp is the human-facing spelling.
[[nodiscard]] std::string_view segment_metric_name(SegmentKind kind);

class SegmentMetrics {
 public:
  /// Registers `<prefix>.<kind>` counters (e.g. "sniffer.out.syn") in
  /// `registry`, which must outlive this object.
  SegmentMetrics(obs::Registry& registry, std::string_view prefix);

  /// O(1): one counter add.
  void on_segment(SegmentKind kind) {
    counters_[static_cast<std::size_t>(kind)]->add();
  }

 private:
  obs::Counter* counters_[kSegmentKindCount] = {};
};

}  // namespace syndog::classify
