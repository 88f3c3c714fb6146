// Batch analysis of time series (vectors of per-period samples).
//
// The paper's Section 4.1 argues SYN and SYN/ACK counts are strongly
// positively correlated and that {Xn} is stationary; these helpers quantify
// exactly that for the figure benches and the property tests.
#pragma once

#include <cstddef>
#include <vector>

namespace syndog::stats {

[[nodiscard]] double series_mean(const std::vector<double>& xs);
[[nodiscard]] double series_min(const std::vector<double>& xs);
[[nodiscard]] double series_max(const std::vector<double>& xs);

/// Pearson correlation coefficient of two equally long series; 0 when a
/// series is constant or the series are shorter than 2.
[[nodiscard]] double pearson_correlation(const std::vector<double>& xs,
                                         const std::vector<double>& ys);

/// Index of the first element strictly greater than `threshold`, or -1.
[[nodiscard]] std::ptrdiff_t first_crossing(const std::vector<double>& xs,
                                            double threshold);

}  // namespace syndog::stats
