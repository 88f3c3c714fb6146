#include "syndog/util/table.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "syndog/util/strings.hpp"

namespace syndog::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("TextTable: header must not be empty");
  }
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row has " +
                                std::to_string(cells.size()) +
                                " cells, expected " +
                                std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  const auto rule = [&] {
    out << '+';
    for (std::size_t w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
          << " |";
    }
    out << '\n';
  };

  rule();
  line(header_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
  return out.str();
}

void AsciiChart::add_series(std::string name, std::vector<double> values) {
  series_.emplace_back(std::move(name), std::move(values));
}

void AsciiChart::add_threshold(std::string name, double value) {
  thresholds_.emplace_back(std::move(name), value);
}

std::string AsciiChart::to_string() const {
  static constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '#', '@'};
  const int width = std::max(options_.width, 8);
  const int height = std::max(options_.height, 4);

  double y_min = options_.y_min;
  double y_max = options_.y_max;
  if (y_max <= y_min) {
    y_max = y_min;
    for (const auto& [name, values] : series_) {
      for (double v : values) y_max = std::max(y_max, v);
    }
    for (const auto& [name, value] : thresholds_) {
      y_max = std::max(y_max, value);
    }
    if (y_max <= y_min) y_max = y_min + 1.0;
    y_max *= 1.05;  // headroom so the peak is not clipped into the top row
  }

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  const auto row_of = [&](double v) {
    const double t = (v - y_min) / (y_max - y_min);
    const int r =
        height - 1 - static_cast<int>(std::lround(t * (height - 1)));
    return std::clamp(r, 0, height - 1);
  };

  for (const auto& [name, value] : thresholds_) {
    if (value < y_min || value > y_max) continue;
    std::string& row = grid[static_cast<std::size_t>(row_of(value))];
    for (int c = 0; c < width; ++c) {
      if (row[static_cast<std::size_t>(c)] == ' ') {
        row[static_cast<std::size_t>(c)] = '-';
      }
    }
  }

  std::size_t longest = 1;
  for (const auto& [name, values] : series_) {
    longest = std::max(longest, values.size());
  }
  for (std::size_t s = 0; s < series_.size(); ++s) {
    const auto& values = series_[s].second;
    if (values.empty()) continue;
    const char glyph = kGlyphs[s % sizeof(kGlyphs)];
    for (int c = 0; c < width; ++c) {
      // Resample by nearest index so short and long series share the x axis.
      const std::size_t i = std::min(
          values.size() - 1,
          static_cast<std::size_t>(
              std::llround(static_cast<double>(c) /
                           std::max(1, width - 1) *
                           static_cast<double>(values.size() - 1))));
      const double v = std::clamp(values[i], y_min, y_max);
      grid[static_cast<std::size_t>(row_of(v))]
          [static_cast<std::size_t>(c)] = glyph;
    }
  }

  std::ostringstream out;
  if (!options_.y_label.empty()) out << options_.y_label << '\n';
  for (int r = 0; r < height; ++r) {
    const double v =
        y_max - (y_max - y_min) * static_cast<double>(r) / (height - 1);
    out << strprintf("%10s |", format_double(v, 3).c_str())
        << grid[static_cast<std::size_t>(r)] << '\n';
  }
  out << std::string(11, ' ') << '+' << std::string(
      static_cast<std::size_t>(width), '-') << '\n';
  if (!options_.x_label.empty()) {
    out << std::string(12, ' ') << options_.x_label << '\n';
  }
  for (std::size_t s = 0; s < series_.size(); ++s) {
    out << "  " << kGlyphs[s % sizeof(kGlyphs)] << " = " << series_[s].first
        << " (" << series_[s].second.size() << " samples)\n";
  }
  for (const auto& [name, value] : thresholds_) {
    out << "  - = " << name << " (" << format_double(value, 3) << ")\n";
  }
  return out.str();
}

}  // namespace syndog::util
