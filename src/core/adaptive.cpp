#include "syndog/core/adaptive.hpp"

#include <stdexcept>
#include <utility>

#include "syndog/detect/cusum.hpp"

namespace syndog::core {

void AdaptiveParams::validate() const {
  if (training_periods < 2) {
    throw std::invalid_argument(
        "AdaptiveParams: need at least 2 training periods");
  }
}

AdaptiveSynDog::AdaptiveSynDog(AdaptiveParams params)
    : params_(params), detector_(SynDogParams::paper_defaults()) {
  params_.validate();
}

PeriodReport AdaptiveSynDog::observe_period(std::int64_t syn_count,
                                            std::int64_t syn_ack_count) {
  const PeriodReport report =
      detector_.observe_period(syn_count, syn_ack_count);
  if (!trained_) {
    // Only quiet samples teach the baseline: a flood period has Xn at or
    // above the universal offset, and feeding it would raise the learned
    // a toward blindness. Gating on the sample (not on y) matters because
    // y can stay elevated long after a flood ends.
    if (report.x < detector_.params().a) {
      x_stats_.add(report.x);
    }
    if (x_stats_.count() >= params_.training_periods) {
      maybe_finish_training();
    }
  }
  return report;
}

void AdaptiveSynDog::maybe_finish_training() {
  const detect::SiteDesign design =
      detect::site_design(x_stats_.mean(), x_stats_.stddev());
  SynDogParams tuned = detector_.params();
  tuned.a = design.a;
  tuned.h = design.h;
  tuned.threshold = design.threshold;

  // Carry the detector's K estimate across the switch by replaying the
  // level into a fresh instance.
  const double k = detector_.k();
  SynDog replacement(tuned);
  if (k > 0.0) {
    // One observation with SYN == SYNACK == K primes the estimator at the
    // learned level without perturbing the statistic.
    (void)replacement.observe_period(static_cast<std::int64_t>(k),
                                     static_cast<std::int64_t>(k));
  }
  detector_ = std::move(replacement);
  trained_ = true;
}

double AdaptiveSynDog::min_detectable_rate() const {
  return SynDog::min_detectable_rate(active_params().a, learned_c(),
                                     detector_.k(),
                                     active_params().observation_period);
}

}  // namespace syndog::core
