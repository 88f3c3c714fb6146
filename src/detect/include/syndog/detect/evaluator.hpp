// Detection-performance evaluation (paper §3.2's two fundamental measures).
//
// Given per-period observation series with a known attack onset, the
// evaluator computes the *detection time* (delay in periods from onset to
// first alarm) per trial, and aggregates *detection probability* and mean
// delay across an ensemble — the exact quantities of Tables 2 and 3. On
// attack-free series it measures false alarms and the time between them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "syndog/detect/change_detector.hpp"

namespace syndog::detect {

/// Outcome of running a detector over one trial series.
struct TrialResult {
  /// Delay in periods from attack onset to first alarm at or after onset
  /// (0 = alarm in the onset period); nullopt = never detected.
  std::optional<std::int64_t> detection_delay;
  /// Alarms strictly before onset (false alarms for attack trials; all
  /// alarms for attack-free trials with onset == series length).
  std::int64_t false_alarms = 0;
  /// Test statistic trajectory, one entry per observation.
  std::vector<double> statistic_path;
};

/// Feeds `series` to a fresh detector. `attack_onset` is the index of the
/// first attack-affected observation (pass series.size() for attack-free
/// runs). The detector keeps running after a pre-onset alarm (the statistic
/// resets itself in CUSUM-style detectors), which matches how a deployed
/// monitor behaves.
[[nodiscard]] TrialResult run_trial(ChangeDetector& detector,
                                    const std::vector<double>& series,
                                    std::size_t attack_onset);

/// Ensemble aggregate over trials, mirroring the paper's table columns.
struct EnsembleResult {
  std::int64_t trials = 0;
  std::int64_t detected = 0;
  double detection_probability = 0.0;
  /// Mean delay over *detected* trials, in periods; 0 when none detected.
  double mean_detection_delay = 0.0;
  double max_detection_delay = 0.0;
  std::int64_t total_false_alarms = 0;
  /// Mean periods between false alarms; +inf when none occurred.
  double mean_false_alarm_spacing = 0.0;
};

/// Runs `trials` independent series (produced by `make_series`, which also
/// reports each trial's attack onset) through fresh detectors from
/// `make_detector`.
struct TrialSpec {
  std::vector<double> series;
  std::size_t attack_onset = 0;
};

[[nodiscard]] EnsembleResult evaluate_ensemble(
    const std::function<std::unique_ptr<ChangeDetector>()>& make_detector,
    const std::function<TrialSpec(std::uint64_t trial_index)>& make_series,
    std::int64_t trials);

}  // namespace syndog::detect
