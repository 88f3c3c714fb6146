// Diurnal-aware false-alarm budget: the realized ARL0 of a site is not
// the ARL0 at its mean rate. Quiet hours have a small per-period
// SYN/ACK count lambda, hence a heavier-tailed scaled Poisson (arl.hpp)
// and a much shorter run length — and since false-alarm *rates* add,
// the quiet bins dominate the budget. This header bins the realized
// per-period counts into equal-occupancy quantile bins, evaluates the
// Brook & Evans ARL0 per bin, and combines the bins by harmonic mean
// (equivalently: averaging the per-period false-alarm rates).
//
// Shared by `syndog_tool sensitivity` and bench_adaptive_tuning; see
// docs/STATIC_ANALYSIS.md's sibling docs and EXPERIMENTS.md for the
// expected shapes.
#pragma once

#include <vector>

namespace syndog::detect {

struct LambdaBinArl {
  double lambda = 0.0;  ///< mean per-period SYN/ACK count in the bin
  double arl0 = 0.0;    ///< periods between false alarms at that rate
};

struct BinnedArlSpec {
  double c = 0.0;           ///< normal mean of Xn = delta / K-bar (> 0)
  double offset = 0.35;     ///< the CUSUM's drift offset a
  double threshold = 1.05;  ///< alarm threshold N
  int states = 400;         ///< ARL discretization resolution

  void validate() const;
};

struct BinnedArlResult {
  /// One entry per quartile bin, quietest first. Empty when fewer
  /// than four positive counts were supplied.
  std::vector<LambdaBinArl> bins;
  /// Harmonic mean of the per-bin ARL0s — the realized site-wide mean
  /// time between false alarms under equal bin occupancy.
  double combined_arl0 = 0.0;
  /// The single-rate ARL0 at `mean_lambda`, the figure a diurnal-blind
  /// analysis would quote.
  double mean_rate_arl0 = 0.0;
};

/// Bins the positive entries of `counts` (per-period SYN/ACK counts;
/// non-positive entries are dropped — "no traffic" is not a rate) into
/// quartile bins and evaluates the scaled-Poisson CUSUM
/// ARL0 for each, plus the combined and mean-rate figures.
/// `mean_lambda` is the caller's overall K-bar estimate (it may include
/// zero periods, so it is not derived from `counts`).
[[nodiscard]] BinnedArlResult binned_poisson_arl(
    std::vector<double> counts, double mean_lambda,
    const BinnedArlSpec& spec);

}  // namespace syndog::detect
