// Presentation helpers for the experiment harness.
//
// Every bench binary reproduces a paper table or figure as text: tables are
// rendered with TextTable and figure series with AsciiChart (a terminal line
// chart).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace syndog::util {

/// Accumulates rows of strings and renders a boxed, column-aligned table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Options controlling AsciiChart rendering.
struct AsciiChartOptions {
  int width = 100;    ///< plot columns (series is resampled to fit)
  int height = 16;    ///< plot rows
  double y_min = 0.0; ///< lower bound of the y axis
  /// Upper bound of the y axis; <= y_min means auto-scale to the data.
  double y_max = 0.0;
  std::string x_label;
  std::string y_label;
};

/// Renders one or more series as a terminal line chart. Multiple series are
/// drawn with distinct glyphs ('*', '+', 'o', ...) and listed in a legend.
class AsciiChart {
 public:
  explicit AsciiChart(AsciiChartOptions options) : options_(options) {}

  void add_series(std::string name, std::vector<double> values);
  /// Marks a horizontal reference line (e.g. the flooding threshold N).
  void add_threshold(std::string name, double value);

  [[nodiscard]] std::string to_string() const;

 private:
  AsciiChartOptions options_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  std::vector<std::pair<std::string, double>> thresholds_;
};

}  // namespace syndog::util
