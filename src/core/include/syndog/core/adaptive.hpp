// Site-adaptive parameter tuning (paper §4.2.3, "the network
// administrator ... can incorporate site-specific information so that the
// algorithm can achieve higher detection performance").
//
// The paper tunes UNC by hand (a: 0.35 -> 0.2, N: 1.05 -> 0.6). This
// class automates that: during a training window it estimates the site's
// normal-mode mean c and standard deviation sigma of Xn, then runs the
// standard detector with detect::site_design(c, sigma) from then on
// (a = clamp(c + 6 sigma, 0.05, 0.35), h = 2a, N = 3 (h - a)). During
// training the paper's universal parameters stay active, so the agent
// is never blind.
#pragma once

#include <cstdint>

#include "syndog/core/syndog.hpp"
#include "syndog/stats/online.hpp"

namespace syndog::core {

struct AdaptiveParams {
  /// Periods of normal traffic to learn from before switching.
  std::int64_t training_periods = 60;

  void validate() const;
};

class AdaptiveSynDog {
 public:
  explicit AdaptiveSynDog(AdaptiveParams params);

  /// Same contract as SynDog::observe_period. Training samples feed the
  /// estimator only while the universal detector is quiet, so a flood
  /// during training cannot teach the detector to ignore floods.
  PeriodReport observe_period(std::int64_t syn_count,
                              std::int64_t syn_ack_count);

  [[nodiscard]] bool trained() const { return trained_; }
  /// The learned parameters (universal parameters until trained).
  [[nodiscard]] const SynDogParams& active_params() const {
    return detector_.params();
  }
  [[nodiscard]] double learned_c() const { return x_stats_.mean(); }
  [[nodiscard]] double learned_sigma() const { return x_stats_.stddev(); }
  /// Detection floor under the active parameters at the current K.
  [[nodiscard]] double min_detectable_rate() const;

 private:
  void maybe_finish_training();

  AdaptiveParams params_;
  SynDog detector_;
  stats::OnlineStats x_stats_;
  bool trained_ = false;
};

}  // namespace syndog::core
