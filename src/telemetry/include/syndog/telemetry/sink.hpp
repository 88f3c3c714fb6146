// TelemetrySink — the fleet aggregation endpoint agents stream into.
//
// Producers (per-agent wiring in src/core, or anything else holding a
// series id) call push(); the sink appends the sample synchronously to a
// syndog-tsf/1 stream through a TsfWriter, on the caller's thread. On
// top of the writer it memoizes name → id registration.
//
// Byte-identity contract: the bytes are a pure function of the push
// order — dictionary ids are assigned in registration order and block
// flushes trigger on per-series sample counts.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/time.hpp"

namespace syndog::telemetry {

/// Counters describing one sink's lifetime (all monotonic).
struct SinkStats {
  std::uint64_t drained = 0;  ///< samples appended to the tsf stream
  std::uint64_t blocks = 0;   ///< tsf blocks written so far
};

class TelemetrySink {
 public:
  /// `block_capacity` = samples per tsf block (see TsfWriter). The
  /// stream is finished on destruction if finish() was not called.
  explicit TelemetrySink(std::ostream& out, std::size_t block_capacity = 512);
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Registration: ids are dense, assigned in call order (producer order
  /// is part of the byte-identity contract). Not hot-path — may allocate.
  std::uint32_t register_agent(std::string_view name, std::uint32_t as_number);
  /// Returns the metric's id, registering it on first use.
  std::uint32_t metric_id(std::string_view name);
  /// Returns the series id for agent × metric, opening it on first use.
  std::uint32_t series_id(std::uint32_t agent, std::uint32_t metric);

  /// Hot path: one synchronous append (allocation-free between block
  /// flushes). Throws std::logic_error after finish().
  void push(std::uint32_t series, util::SimTime at, double value) {
    writer_.append(series, at, value);
  }

  /// Writes the tsf footer and flushes the stream (TsfWriter::finish:
  /// idempotent, throws std::runtime_error when the stream failed).
  void finish() { writer_.finish(); }

  [[nodiscard]] SinkStats stats() const {
    return SinkStats{writer_.samples_written(), writer_.blocks_written()};
  }

 private:
  TsfWriter writer_;
  std::map<std::string, std::uint32_t, std::less<>> metric_ids_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
      series_ids_;
};

}  // namespace syndog::telemetry
