// CUSUM change detectors.
//
// NonParametricCusum is the paper's Eq. (2)-(4): yn = (y(n-1) + Xn - a)^+,
// alarm when yn > N. It assumes only that the pre-change mean of Xn is
// below `a`; no distributional model (Brodsky & Darkhovsky [4]).
//
// ParametricCusum is the classical Page/Lorden log-likelihood-ratio CUSUM
// for a Gaussian mean shift, included as the model-based comparator: it is
// sharper when its model holds and brittle when it does not — exactly the
// trade-off that motivates the paper's non-parametric choice.
#pragma once

#include <stdexcept>

#include "syndog/detect/change_detector.hpp"

namespace syndog::detect {

struct NonParametricCusumParams {
  /// Upper bound `a` on the normal-operation mean of the observations
  /// (paper default 0.35). The update subtracts it so the drift is negative
  /// pre-change.
  double drift_offset = 0.35;
  /// Flooding threshold `N` (paper default 1.05).
  double threshold = 1.05;
  /// Bounded-CUSUM cap on the statistic (0 = unbounded, the paper's
  /// form). A long flood drives an unbounded statistic arbitrarily high,
  /// so the alarm outlives the attack by y/(a - c) periods; capping at a
  /// small multiple of the threshold bounds that inertia without
  /// affecting detection (the alarm fires at the threshold either way).
  double max_statistic = 0.0;

  void validate() const {
    if (threshold <= 0.0) {
      throw std::invalid_argument("CUSUM: threshold must be positive");
    }
    if (max_statistic != 0.0 && max_statistic < threshold) {
      throw std::invalid_argument(
          "CUSUM: max_statistic must be 0 or >= threshold");
    }
  }
};

class NonParametricCusum final : public ChangeDetector {
 public:
  explicit NonParametricCusum(NonParametricCusumParams params);

  Decision update(double x) override;
  [[nodiscard]] double statistic() const override { return y_; }
  [[nodiscard]] double threshold() const override {
    return params_.threshold;
  }
  void reset() override;
  [[nodiscard]] std::string_view name() const override {
    return "np-cusum";
  }

  [[nodiscard]] const NonParametricCusumParams& params() const {
    return params_;
  }

 private:
  NonParametricCusumParams params_;
  double y_ = 0.0;
};

/// The paper's universal drift offset a (§4.1): what every site runs
/// before it is tuned, and the upper end of site_design's clamp.
inline constexpr double kUniversalDriftOffset = 0.35;

/// Non-parametric CUSUM parameters for one site (paper §4.2.3's
/// site-specific tuning, by the design rule of §3.2).
struct SiteDesign {
  double a = 0.0;          ///< drift offset
  double h = 0.0;          ///< designed attack drift
  double threshold = 0.0;  ///< flooding threshold N
};

/// Designs the CUSUM for a site whose pre-change Xn has mean `c` and
/// standard deviation `sigma`:
///   a = clamp(c + 6 sigma, 0.05, kUniversalDriftOffset)
///   h = 2a
///   N = 3 (h - a)   (Eq. 7 at c ~= 0: a 3-period detection delay)
/// core::AdaptiveSynDog learns c and sigma online, and
/// trace::profile_counts measures them from a capture's counts.
[[nodiscard]] SiteDesign site_design(double c, double sigma);

struct ParametricCusumParams {
  double mean_normal = 0.0;   ///< mu0
  double mean_attack = 1.0;   ///< mu1 > mu0
  double stddev = 1.0;        ///< shared sigma > 0
  double threshold = 5.0;     ///< decision threshold on the LLR statistic

  void validate() const {
    if (stddev <= 0.0) {
      throw std::invalid_argument("ParametricCusum: stddev must be > 0");
    }
    if (mean_attack <= mean_normal) {
      throw std::invalid_argument(
          "ParametricCusum: mean_attack must exceed mean_normal");
    }
    if (threshold <= 0.0) {
      throw std::invalid_argument("ParametricCusum: threshold must be > 0");
    }
  }
};

class ParametricCusum final : public ChangeDetector {
 public:
  explicit ParametricCusum(ParametricCusumParams params);

  Decision update(double x) override;
  [[nodiscard]] double statistic() const override { return g_; }
  [[nodiscard]] double threshold() const override {
    return params_.threshold;
  }
  void reset() override;
  [[nodiscard]] std::string_view name() const override { return "cusum-llr"; }

 private:
  ParametricCusumParams params_;
  double g_ = 0.0;
};

}  // namespace syndog::detect
