#include "syndog/detect/arl_bins.hpp"

#include <algorithm>
#include <stdexcept>

#include "syndog/detect/arl.hpp"

namespace syndog::detect {

void BinnedArlSpec::validate() const {
  if (!(c > 0.0)) {
    throw std::invalid_argument("BinnedArlSpec: c must be > 0");
  }
  // offset/threshold/states range checks are delegated to
  // PoissonArlSpec::validate() at evaluation time.
}

namespace {

/// Equal-occupancy quantile bins: quartiles.
constexpr int kBins = 4;

double arl_at(double lambda, const BinnedArlSpec& spec) {
  PoissonArlSpec arl_spec;
  arl_spec.rate = spec.c * lambda;
  arl_spec.scale = 1.0 / lambda;
  arl_spec.offset = spec.offset;
  arl_spec.threshold = spec.threshold;
  arl_spec.states = spec.states;
  return cusum_average_run_length(arl_spec);
}

}  // namespace

BinnedArlResult binned_poisson_arl(std::vector<double> counts,
                                   double mean_lambda,
                                   const BinnedArlSpec& spec) {
  spec.validate();
  BinnedArlResult result;
  counts.erase(std::remove_if(counts.begin(), counts.end(),
                              [](double v) { return !(v > 0.0); }),
               counts.end());
  std::sort(counts.begin(), counts.end());
  if (counts.size() >= static_cast<std::size_t>(kBins)) {
    double fa_rate_sum = 0.0;  // per-period false-alarm rate, averaged
    for (int b = 0; b < kBins; ++b) {
      const std::size_t lo =
          counts.size() * static_cast<std::size_t>(b) /
          static_cast<std::size_t>(kBins);
      const std::size_t hi =
          counts.size() * static_cast<std::size_t>(b + 1) /
          static_cast<std::size_t>(kBins);
      double lambda = 0.0;
      for (std::size_t i = lo; i < hi; ++i) lambda += counts[i];
      lambda /= static_cast<double>(hi - lo);
      const double arl = arl_at(lambda, spec);
      fa_rate_sum += 1.0 / arl;
      result.bins.push_back({lambda, arl});
    }
    result.combined_arl0 = static_cast<double>(kBins) / fa_rate_sum;
  }
  if (mean_lambda > 0.0) {
    result.mean_rate_arl0 = arl_at(mean_lambda, spec);
  }
  return result;
}

}  // namespace syndog::detect
