// Shared plumbing of the perfbench binary: options, the result record,
// pass bookkeeping, and the span file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "alloc_meter.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;  ///< traced run: where the spans go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: passes attempted and failed against the output
/// gate, and the metrics of the passes that held.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records one gated pass; prints why it failed.
  bool gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: output gate failed: %s\n",
                   what.c_str());
    }
    return ok;
  }
};

/// The benchmark's own input generator (splitmix64), so a change to the
/// program's random streams never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  /// Exponential gap with the given mean.
  double exponential(double mean) {
    return -mean * std::log1p(-uniform());
  }

 private:
  std::uint64_t state_;
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Harmonic mean. Of the rates of passes that each do the same work, it
/// is the rate over the whole run: the work of all passes over their
/// summed time. The throughput metrics use it rather than a median of
/// rates because the host flips between fast and slow phases lasting from
/// one pass to ~15 s; a median jumps to whichever phase held more passes,
/// while the run's rate moves only by the share of time each phase took.
[[nodiscard]] inline double harmonic_mean(const std::vector<double>& v) {
  double inverse_sum = 0.0;
  for (const double x : v) inverse_sum += 1.0 / x;
  return v.empty() ? 0.0 : static_cast<double>(v.size()) / inverse_sum;
}

/// Prints each pass's value of one metric to stderr, in pass order.
inline void print_passes(const char* metric, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %s by pass:", metric);
  for (const double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

[[nodiscard]] inline double seconds_between(std::int64_t a_ns,
                                            std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

/// Peak heap bytes added between construction and the end of a pass.
class MemWindow {
 public:
  MemWindow() : base_(alloc_meter::live_bytes()) { alloc_meter::reset_peak(); }
  [[nodiscard]] double added_mb() const {
    return static_cast<double>(alloc_meter::peak_bytes() - base_) / 1e6;
  }

 private:
  std::int64_t base_;
};

/// Empty spans timed per traced pass to measure SpanCost (a few ms).
constexpr std::size_t kSpanCostSamples = std::size_t{1} << 16;

/// What a traced run writes out: per-name totals over every pass, and the
/// first spans of each name per pass.
struct TraceRecord {
  static constexpr std::size_t kKeepPerName = 2000;
  std::vector<NameTotals> totals;
  std::vector<Span> kept;
  std::vector<std::uint64_t> elided;

  /// Ends a pass: adds its totals and moves its spans out of `log`.
  void end_pass(SpanLog& log, const std::vector<NameTotals>& pass_totals) {
    totals.resize(pass_totals.size());
    for (std::size_t i = 0; i < pass_totals.size(); ++i) {
      totals[i].count += pass_totals[i].count;
      totals[i].children += pass_totals[i].children;
      totals[i].total_ns += pass_totals[i].total_ns;
      totals[i].self_ns += pass_totals[i].self_ns;
    }
    const auto offset = static_cast<std::int32_t>(kept.size());
    for (Span s : log.drain(kKeepPerName, elided)) {
      if (s.parent >= 0) s.parent += offset;
      kept.push_back(s);
    }
  }
};

/// Writes the span file: one JSON line per kept span, one per span name
/// with its count, child count, total and self time over all passes, and
/// one per name whose spans were elided past the per-pass cap.
void write_span_file(const std::string& path, const SpanLog& log,
                     const TraceRecord& rec);

Outcome run_ingest(const Options& opt);
Outcome run_campaign(const Options& opt);

}  // namespace perfbench
