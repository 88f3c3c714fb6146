// Site calibration from observed counts.
//
// Turns per-period SYN / SYN-ACK counts — from any capture or live
// counters — into (a) a statistical site profile, (b) detector
// parameters recommended by detect::site_design, the rule
// AdaptiveSynDog also applies online, and (c) a synthetic SiteSpec whose
// generated traces match the observed level, imbalance, and burstiness.
// This is how a deployment bootstraps SYN-dog (and this repository's
// experiments) from its *own* traffic instead of the paper's four sites.
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/trace/site.hpp"
#include "syndog/util/time.hpp"

namespace syndog::trace {

struct SiteProfile {
  std::size_t periods = 0;
  util::SimTime period = kObservationPeriod;
  double k_bar = 0.0;      ///< mean SYN/ACKs per period
  double k_stddev = 0.0;
  double k_cv = 0.0;       ///< burstiness of the SYN/ACK level
  double c = 0.0;          ///< mean normalized difference E[(S-A)/A]
  double x_sigma = 0.0;    ///< stddev of the normalized difference
  /// Recommended detector parameters: detect::site_design(c, x_sigma).
  double recommended_a = 0.35;
  double recommended_threshold = 1.05;
  /// Eq. (8) floors under the recommended and universal parameters.
  double floor_recommended = 0.0;
  double floor_universal = 0.0;
};

/// Profiles parallel per-period count series (sizes must match, >= 2).
[[nodiscard]] SiteProfile profile_counts(
    const std::vector<std::int64_t>& syns,
    const std::vector<std::int64_t>& syn_acks,
    util::SimTime period = kObservationPeriod);

/// Builds a synthetic SiteSpec replaying the profile's statistics:
/// matching K-bar (via the outbound rate and the loss probability that
/// reproduces c) and approximating the burstiness via the ON/OFF source
/// count (relative fluctuation ~ 1/sqrt(sources)). `duration` bounds the
/// generated traces.
[[nodiscard]] SiteSpec spec_from_profile(const SiteProfile& profile,
                                         util::SimTime duration);

}  // namespace syndog::trace
