#include "syndog/detect/cusum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace syndog::detect {

NonParametricCusum::NonParametricCusum(NonParametricCusumParams params)
    : params_(params) {
  params_.validate();
}

Decision NonParametricCusum::update(double x) {
  count_sample();
  y_ = std::max(0.0, y_ + (x - params_.drift_offset));
  if (params_.max_statistic > 0.0) {
    y_ = std::min(y_, params_.max_statistic);
  }
  return Decision{y_ > params_.threshold, y_};
}

void NonParametricCusum::reset() {
  y_ = 0.0;
  reset_sample_count();
}

SiteDesign site_design(double c, double sigma) {
  SiteDesign design;
  design.a = std::clamp(c + 6.0 * sigma, 0.05, kUniversalDriftOffset);
  design.h = 2.0 * design.a;
  design.threshold = 3.0 * (design.h - design.a);
  return design;
}

ParametricCusum::ParametricCusum(ParametricCusumParams params)
    : params_(params) {
  params_.validate();
}

Decision ParametricCusum::update(double x) {
  count_sample();
  // Log-likelihood ratio increment for N(mu0, sigma) vs N(mu1, sigma):
  //   s = (mu1 - mu0)/sigma^2 * (x - (mu0 + mu1)/2)
  const double mu0 = params_.mean_normal;
  const double mu1 = params_.mean_attack;
  const double var = params_.stddev * params_.stddev;
  const double s = (mu1 - mu0) / var * (x - 0.5 * (mu0 + mu1));
  g_ = std::max(0.0, g_ + s);
  return Decision{g_ > params_.threshold, g_};
}

void ParametricCusum::reset() {
  g_ = 0.0;
  reset_sample_count();
}

}  // namespace syndog::detect
