// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace syndog::util {

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Case-insensitive ASCII comparison.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Formats a double with `digits` significant fraction digits, trimming
/// trailing zeros ("1.050" -> "1.05", "2.000" -> "2").
[[nodiscard]] std::string format_double(double value, int digits = 4);

/// Formats a count with thousands separators ("14000" -> "14,000").
[[nodiscard]] std::string format_count(std::int64_t value);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace syndog::util
