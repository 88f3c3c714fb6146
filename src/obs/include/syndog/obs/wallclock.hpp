// The repository's single wall-clock seam.
//
// Everything in the tree is deterministic from seeds; wall time exists only
// to *measure* the implementation (the paper's "low computation overhead"
// claim), never to drive it. All wall-clock reads go through WallClock so
// the linter can forbid std::chrono clock reads everywhere else
// (determinism.wall_clock in tools/lint/syndog_lint.py), and tests swap in
// ManualWallClock to make timing code itself deterministic.
//
// Wall-clock readings may feed metrics (perf histograms in a Registry) but
// never a deterministic output: per-period reports, fleet telemetry files
// and deterministic sidecars are part of the byte-identical-replay
// contract.
#pragma once

#include <cstdint>

#include "syndog/obs/metrics.hpp"

namespace syndog::obs {

class WallClock {
 public:
  virtual ~WallClock() = default;
  /// Monotonic nanoseconds; only deltas are meaningful.
  [[nodiscard]] virtual std::int64_t now_ns() const;
};

/// Test double: time advances only when told to.
class ManualWallClock final : public WallClock {
 public:
  [[nodiscard]] std::int64_t now_ns() const override { return now_ns_; }
  // syndog-lint: allow-next-line(api.test_only) -- fake clock that tests step to check timing code
  void advance_ns(std::int64_t delta) { now_ns_ += delta; }

 private:
  std::int64_t now_ns_ = 0;
};

/// Records the elapsed wall time of a scope into a latency histogram.
/// Usage on a hot path:
///   Histogram& h = registry.histogram("classify.frame_ns", kLatencyBuckets);
///   { ScopedTimer t(clock, h);  classify_frame_fast(frame); }
class ScopedTimer {
 public:
  ScopedTimer(const WallClock& clock, Histogram& sink)
      : clock_(clock), sink_(sink), start_ns_(clock.now_ns()) {}
  ~ScopedTimer() {
    sink_.observe(static_cast<double>(clock_.now_ns() - start_ns_));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const WallClock& clock_;
  Histogram& sink_;
  std::int64_t start_ns_;
};

/// Default bucket bounds (ns) for hot-path latency histograms: 16 ns to
/// ~1 ms in powers of four, covering a line-rate classifier decision up to
/// a full period rollover.
[[nodiscard]] std::vector<double> latency_buckets_ns();

}  // namespace syndog::obs
