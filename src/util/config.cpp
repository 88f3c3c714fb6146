#include "syndog/util/config.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "syndog/util/strings.hpp"

namespace syndog::util {

std::optional<std::string> env_var(std::string_view name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read before any thread starts
  const char* value = std::getenv(std::string(name).c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

namespace {
[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const char* kind) {
  throw std::invalid_argument("config key '" + std::string(key) +
                              "': cannot parse '" + std::string(value) +
                              "' as " + kind);
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("config: expected key=value, got '" +
                                  std::string(arg) + "'");
    }
    cfg.set(std::string(trim(arg.substr(0, eq))),
            std::string(trim(arg.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

void Config::merge(const Config& overrides) {
  for (const auto& [key, value] : overrides.entries_) {
    entries_[key] = value;
  }
}

bool Config::contains(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::optional<std::string> Config::get(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(std::string_view key,
                               std::string fallback) const {
  if (auto v = get(key)) return *v;
  return fallback;
}

std::int64_t Config::get_int(std::string_view key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    bad_value(key, *v, "integer");
  }
  return out;
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double out = std::stod(*v, &consumed);
    if (consumed != v->size()) bad_value(key, *v, "double");
    return out;
  } catch (const std::logic_error&) {
    bad_value(key, *v, "double");
  }
}

}  // namespace syndog::util
