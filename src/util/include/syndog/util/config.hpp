// Key-value configuration.
//
// Experiment binaries accept "key=value" overrides from argv. Typed getters validate on read so a
// typo'd value fails loudly at startup instead of producing a silent default.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace syndog::util {

/// Reads an environment variable; nullopt when unset. The process
/// environment is the one sanctioned out-of-band input channel (e.g.
/// SYNDOG_BENCH_DIR for where a bench writes its sidecar): it can tune
/// presentation, never the experiment itself — results must stay a
/// function of seeds and config.
[[nodiscard]] std::optional<std::string> env_var(std::string_view name);

class Config {
 public:
  Config() = default;

  /// Parses each argv element as one "key=value" entry.
  [[nodiscard]] static Config from_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);
  /// Later entries win; used to layer CLI overrides on top of defaults.
  void merge(const Config& overrides);

  [[nodiscard]] bool contains(std::string_view key) const;
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  /// Typed getters: return `fallback` when the key is absent; throw
  /// std::invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace syndog::util
