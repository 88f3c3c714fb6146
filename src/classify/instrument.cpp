#include "syndog/classify/instrument.hpp"

#include <string>

namespace syndog::classify {

std::string_view segment_metric_name(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kSyn:
      return "syn";
    case SegmentKind::kSynAck:
      return "syn_ack";
    case SegmentKind::kFin:
      return "fin";
    case SegmentKind::kRst:
      return "rst";
    case SegmentKind::kPureAck:
      return "ack";
    case SegmentKind::kData:
      return "data";
    case SegmentKind::kNotTcp:
      return "not_tcp";
  }
  return "unknown";
}

SegmentMetrics::SegmentMetrics(obs::Registry& registry,
                               std::string_view prefix) {
  for (std::size_t i = 0; i < kSegmentKindCount; ++i) {
    const std::string name =
        std::string(prefix) + "." +
        std::string(segment_metric_name(static_cast<SegmentKind>(i)));
    counters_[i] = &registry.counter(name);
  }
}

}  // namespace syndog::classify
