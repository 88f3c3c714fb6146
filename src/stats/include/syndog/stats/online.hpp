// Online (single-pass) statistics.
//
// Used by trace calibration, the detector evaluation harness, and the
// SYN/ACK level estimator tests. All accumulators are O(1) memory, matching
// the paper's statelessness requirement for anything running on the router.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace syndog::stats {

/// Welford's algorithm: numerically stable running mean/variance, plus
/// min/max. Safe to query at any time; variance of < 2 samples is 0.
class OnlineStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (divide by n).
  [[nodiscard]] double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Coefficient of variation (stddev/mean); 0 when the mean is 0.
  [[nodiscard]] double cv() const;

  /// Merges another accumulator (parallel Welford combine).
  void merge(const OnlineStats& other);

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average with memory factor `alpha` in
/// (0, 1): v(n) = alpha*v(n-1) + (1-alpha)*x(n). This is exactly the K
/// estimator of the paper's Eq. (1). The first sample initializes the
/// average directly so there is no cold-start bias toward zero.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {
    if (!(alpha > 0.0 && alpha < 1.0)) {
      throw std::invalid_argument("Ewma: alpha must lie strictly in (0,1)");
    }
  }

  void add(double x) {
    if (!primed_) {
      value_ = x;
      primed_ = true;
    } else {
      value_ = alpha_ * value_ + (1.0 - alpha_) * x;
    }
    ++count_;
  }

  [[nodiscard]] bool primed() const { return primed_; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] std::int64_t count() const { return count_; }

  void reset() {
    primed_ = false;
    value_ = 0.0;
    count_ = 0;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
  std::int64_t count_ = 0;
};

/// EWMA of mean and variance together (for control-chart baselines):
/// maintains an exponentially weighted estimate of E[X] and Var[X].
class EwmaMeanVar {
 public:
  explicit EwmaMeanVar(double alpha) : mean_(alpha), var_(alpha) {}

  void add(double x) {
    const double prev_mean = mean_.primed() ? mean_.value() : x;
    mean_.add(x);
    const double dev = x - prev_mean;
    var_.add(dev * dev);
  }

  [[nodiscard]] bool primed() const { return mean_.primed(); }
  [[nodiscard]] double mean() const { return mean_.value(); }
  [[nodiscard]] double variance() const { return var_.value(); }
  [[nodiscard]] double stddev() const;

 private:
  Ewma mean_;
  Ewma var_;
};

}  // namespace syndog::stats
