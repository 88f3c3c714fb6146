// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The registry holds the aggregate side of observation; per-period
// detector state travels through core::SynDogAgent's period callbacks
// into the fleet telemetry file instead. Instruments are created once
// by name and then updated through stable references, so the hot paths the
// paper's "low computation overhead" claim covers (classifier, sniffers,
// CUSUM update) pay one integer add per observation — no lookup, no lock,
// no allocation.
//
// Snapshots are stable-ordered (sorted by name) and render to JSON with
// deterministic number formatting, so two identical runs produce identical
// exports — the same reproducibility contract as the rest of the tree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace syndog::obs {

/// Monotonically increasing integer (events, packets, alarms).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (queue depth, current K estimate).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// value <= bounds[i] (first matching bucket); one implicit overflow
/// bucket collects everything above the last bound. Bounds are fixed at
/// registration so merging/exporting never rebins.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every instrument, sorted by name within each
/// family. The order is part of the export contract: identical registry
/// state renders to byte-identical JSON.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  [[nodiscard]] std::string to_json() const;
};

/// Owns instruments by name. References returned by the getters are stable
/// for the registry's lifetime (node-based storage), so callers cache them
/// once and update them on the hot path.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates the instrument on first use; later calls return the same one.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `upper_bounds` is used on first registration only; a later call with
  /// different bounds throws std::invalid_argument (silent rebinning would
  /// corrupt the export).
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> upper_bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace syndog::obs
