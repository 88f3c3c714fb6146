// Machine-readable bench results.
//
// Every bench binary gets a process-wide Sidecar (opened by print_header)
// that accumulates named scalars, text notes, and per-period series next to
// the human-readable stdout report, and writes them as BENCH_<name>.json at
// normal process exit. CI's bench-smoke job validates the files against
// tools/check_bench_json.py, so regressions in the headline numbers (K-bar,
// detection probability, delay) become diffable artifacts instead of log
// prose.
//
// The sidecar also owns an obs::Registry; benches that drive instrumented
// components (core::SynDog, sim::Scheduler) attach it so the exported
// "metrics" block reflects the run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "syndog/obs/metrics.hpp"

namespace syndog::bench {

class Sidecar {
 public:
  /// `name` becomes the BENCH_<name>.json filename; keep it a short
  /// [a-z0-9_] experiment id (e.g. "table2_unc_detection").
  explicit Sidecar(std::string name);

  void scalar(const std::string& key, double value);
  void text(const std::string& key, std::string value);
  void series(const std::string& key, std::vector<double> values);

  [[nodiscard]] obs::Registry& registry() { return registry_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string to_json() const;

  /// Writes BENCH_<name>.json into $SYNDOG_BENCH_DIR (or the CWD when
  /// unset) and returns the path. Throws std::runtime_error on I/O failure.
  std::string write() const;

 private:
  std::string name_;
  std::map<std::string, double, std::less<>> scalars_;
  std::map<std::string, std::string, std::less<>> text_;
  std::map<std::string, std::vector<double>, std::less<>> series_;
  obs::Registry registry_;
};

/// Opens the process-wide sidecar (idempotent for the same name; throws if
/// a different name is already open) and registers an atexit hook that
/// writes it. print_header calls this, so benches normally just use
/// sidecar() afterwards.
Sidecar& open_sidecar(const std::string& name);

/// The process-wide sidecar, or nullptr before open_sidecar/print_header.
[[nodiscard]] Sidecar* sidecar();

}  // namespace syndog::bench
