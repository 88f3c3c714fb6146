#include "syndog/trace/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "syndog/detect/cusum.hpp"
#include "syndog/stats/online.hpp"

namespace syndog::trace {

namespace {

/// Inverts c = (p + p^2 + p^3) / (1 - p^3) for p by bisection.
double loss_for_c(double c) {
  if (c <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = 0.9;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (normalized_difference_mean(mid) < c) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

SiteProfile profile_counts(const std::vector<std::int64_t>& syns,
                           const std::vector<std::int64_t>& syn_acks,
                           util::SimTime period) {
  if (syns.size() != syn_acks.size()) {
    throw std::invalid_argument("profile_counts: series size mismatch");
  }
  if (syns.size() < 2) {
    throw std::invalid_argument("profile_counts: need at least 2 periods");
  }
  if (period <= util::SimTime::zero()) {
    throw std::invalid_argument("profile_counts: period must be positive");
  }

  stats::OnlineStats k_stats;
  stats::OnlineStats x_stats;
  for (std::size_t i = 0; i < syns.size(); ++i) {
    k_stats.add(static_cast<double>(syn_acks[i]));
    const double k_ref =
        std::max(1.0, static_cast<double>(syn_acks[i]));
    x_stats.add(static_cast<double>(syns[i] - syn_acks[i]) / k_ref);
  }

  SiteProfile profile;
  profile.periods = syns.size();
  profile.period = period;
  profile.k_bar = k_stats.mean();
  profile.k_stddev = k_stats.stddev();
  profile.k_cv = k_stats.cv();
  profile.c = x_stats.mean();
  profile.x_sigma = x_stats.stddev();
  const detect::SiteDesign design =
      detect::site_design(profile.c, profile.x_sigma);
  profile.recommended_a = design.a;
  profile.recommended_threshold = design.threshold;
  profile.floor_recommended = (profile.recommended_a - profile.c) *
                              profile.k_bar / period.to_seconds();
  profile.floor_universal = (detect::kUniversalDriftOffset - profile.c) *
                            profile.k_bar / period.to_seconds();
  return profile;
}

SiteSpec spec_from_profile(const SiteProfile& profile,
                           util::SimTime duration) {
  if (profile.k_bar <= 0.0) {
    throw std::invalid_argument("spec_from_profile: empty profile");
  }
  if (duration < profile.period) {
    throw std::invalid_argument(
        "spec_from_profile: duration shorter than one period");
  }
  SiteSpec spec;
  spec.name = "calibrated";
  spec.duration = duration;
  spec.bidirectional = false;
  spec.inbound_rate = 0.0;

  // Loss probability reproducing the observed normalized difference,
  // then the attempt rate reproducing the observed SYN/ACK level.
  const double p = loss_for_c(std::max(profile.c, 0.0));
  spec.handshake.no_answer_probability = p;
  spec.outbound_rate = profile.k_bar /
                       (profile.period.to_seconds() * answer_probability(p));

  // ON/OFF source count approximating the observed burstiness: with duty
  // cycle 1/3 the superposition's level fluctuates with cv ~ sqrt(2/N),
  // on top of ~1/sqrt(K) Poisson noise.
  const double poisson_var = 1.0 / profile.k_bar;
  const double source_var =
      std::max(profile.k_cv * profile.k_cv - poisson_var, 1e-4);
  spec.onoff_sources = static_cast<int>(
      std::clamp(2.0 / source_var, 4.0, 500.0));

  spec.disruptions_per_hour = 0.0;  // disruptions are site-specific noise
  spec.expected_syn_ack_per_period = profile.k_bar;
  spec.expected_c = profile.c;
  return spec;
}

}  // namespace syndog::trace
