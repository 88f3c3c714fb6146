#include "syndog/stats/series.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "syndog/stats/online.hpp"

namespace syndog::stats {

double series_mean(const std::vector<double>& xs) {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double series_min(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double series_max(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

double pearson_correlation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson_correlation: size mismatch");
  }
  if (xs.size() < 2) return 0.0;
  const double mx = series_mean(xs);
  const double my = series_mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::ptrdiff_t first_crossing(const std::vector<double>& xs,
                              double threshold) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > threshold) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace syndog::stats
