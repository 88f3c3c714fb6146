#include "syndog/detect/evaluator.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

namespace syndog::detect {

TrialResult run_trial(ChangeDetector& detector,
                      const std::vector<double>& series,
                      std::size_t attack_onset) {
  TrialResult result;
  result.statistic_path.reserve(series.size());
  bool was_alarmed = false;  // rising-edge detection for false-alarm count
  for (std::size_t n = 0; n < series.size(); ++n) {
    const Decision decision = detector.update(series[n]);
    result.statistic_path.push_back(decision.statistic);
    if (n < attack_onset) {
      if (decision.alarm && !was_alarmed) {
        ++result.false_alarms;
      }
    } else if (decision.alarm && !result.detection_delay) {
      result.detection_delay = static_cast<std::int64_t>(n - attack_onset);
    }
    was_alarmed = decision.alarm;
  }
  return result;
}

EnsembleResult evaluate_ensemble(
    const std::function<std::unique_ptr<ChangeDetector>()>& make_detector,
    const std::function<TrialSpec(std::uint64_t trial_index)>& make_series,
    std::int64_t trials) {
  if (trials <= 0) {
    throw std::invalid_argument("evaluate_ensemble: trials must be > 0");
  }
  EnsembleResult out;
  out.trials = trials;
  double delay_sum = 0.0;
  std::int64_t normal_periods = 0;

  for (std::int64_t t = 0; t < trials; ++t) {
    const TrialSpec spec = make_series(static_cast<std::uint64_t>(t));
    if (spec.attack_onset > spec.series.size()) {
      throw std::invalid_argument(
          "evaluate_ensemble: attack_onset beyond series end");
    }
    const std::unique_ptr<ChangeDetector> detector = make_detector();
    const TrialResult trial =
        run_trial(*detector, spec.series, spec.attack_onset);
    if (trial.detection_delay) {
      ++out.detected;
      delay_sum += static_cast<double>(*trial.detection_delay);
      out.max_detection_delay =
          std::max(out.max_detection_delay,
                   static_cast<double>(*trial.detection_delay));
    }
    out.total_false_alarms += trial.false_alarms;
    normal_periods += static_cast<std::int64_t>(spec.attack_onset);
  }

  out.detection_probability =
      static_cast<double>(out.detected) / static_cast<double>(trials);
  out.mean_detection_delay =
      out.detected == 0 ? 0.0 : delay_sum / static_cast<double>(out.detected);
  out.mean_false_alarm_spacing =
      out.total_false_alarms == 0
          ? std::numeric_limits<double>::infinity()
          : static_cast<double>(normal_periods) /
                static_cast<double>(out.total_false_alarms);
  return out;
}

}  // namespace syndog::detect
