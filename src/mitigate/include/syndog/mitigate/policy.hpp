// Staged mitigation policy (ROADMAP item 3; paper §1's localization
// claim, finally acted on).
//
// When a first-mile SYN-dog alarms, the leaf router knows which stations
// are emitting spoofed-source SYNs (core::SourceLocator). The response is
// a per-source staged state machine:
//
//   observe ── engage ──> rate-limit ── escalate ──> quarantine
//      ^                     │  ^                        │
//      └──── probe passed ───┘  └──── release (probe) ───┘
//
// with hysteresis on every transition (consecutive-period streaks, not
// single edges) and exponential re-arm backoff on re-engagement, mirroring
// the agent health machine's tap-outage quarantine pattern — a flapping or
// degraded detector cannot oscillate the throttle.
//
// MitigationPolicy holds the stage switches and the escalation and
// probation lengths; the rest of the tuning is the constants below. A
// default-constructed policy is *empty*: no stage is enabled, and a
// MitigationController built from it installs no hooks at all — the run
// is byte-identical to one without a controller (the fault-subsystem
// invariant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace syndog::mitigate {

/// Per-source response stage, ordered by severity. The numeric values are
/// the telemetry encoding (core::kFleetMetricMitigation samples).
enum class Stage : std::uint8_t {
  kObserve = 0,    ///< listed as a suspect; traffic untouched
  kRateLimit = 1,  ///< SYNs pass through a token bucket
  kQuarantine = 2, ///< SYNs dropped outright
};

[[nodiscard]] constexpr const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kObserve: return "observe";
    case Stage::kRateLimit: return "rate-limit";
    case Stage::kQuarantine: return "quarantine";
  }
  return "?";
}

/// Why a stage transition happened (MitigationController::StageEdge).
enum class EdgeReason : std::uint8_t {
  kEngage = 0,       ///< observe -> first enabled stage (alarm streak)
  kEscalate = 1,     ///< rate-limit -> quarantine (alarm persisted)
  kRelease = 2,      ///< one stage down (quiet streak completed)
  kProbePassed = 3,  ///< probation at rate-limit ended quiet -> observe
  kProbeFailed = 4,  ///< alarm during probation -> re-quarantine
};

[[nodiscard]] constexpr const char* to_string(EdgeReason reason) {
  switch (reason) {
    case EdgeReason::kEngage: return "engage";
    case EdgeReason::kEscalate: return "escalate";
    case EdgeReason::kRelease: return "release";
    case EdgeReason::kProbePassed: return "probe-passed";
    case EdgeReason::kProbeFailed: return "probe-failed";
  }
  return "?";
}

/// The ladder's tuning, one value each (periods are observation periods).
///
/// Consecutive trusted alarm periods before a suspect leaves observe
/// (trusted = the agent reported the period healthy).
inline constexpr std::int64_t kEngageAfter = 1;
/// Token bucket for the rate-limit stage, applied per source MAC to its
/// outbound SYNs only (non-SYN segments always pass, so established
/// connections survive the throttle). It sits below a classic victim's
/// half-open budget (128 slots / 75 s ~ 1.7 slots/s), so a throttled
/// flood can no longer keep a backlog full.
inline constexpr double kRateLimitSynPerS = 1.0;
inline constexpr double kRateLimitBurst = 4.0;
/// A no-alarm period counts toward release only when the CUSUM has
/// genuinely decayed: y < kReleaseFraction * N. (Right below N the
/// statistic is one bad period away from re-alarming.)
inline constexpr double kReleaseFraction = 0.5;
/// Quiet periods (scaled by the per-target backoff multiplier) per
/// downward stage step.
inline constexpr std::int64_t kReleaseAfter = 3;
/// Re-arm backoff: each re-engagement or probe failure doubles the
/// target's release-streak multiplier, up to kBackoffMax; it halves back
/// after kBackoffDecayAfter consecutive clean periods at observe. (The
/// agent health machine's quarantine backoff, applied to the response
/// side.)
inline constexpr std::int64_t kBackoffMax = 8;
inline constexpr std::int64_t kBackoffDecayAfter = 8;
/// A locator suspect becomes a target only with at least this many
/// spoofed SYNs on record — stations that never spoofed are not
/// throttled on the strength of someone else's alarm.
inline constexpr std::uint64_t kMinSpoofedEvidence = 1;
/// Cap on concurrently tracked targets (the locator ranks by spoofed
/// count, so the cap keeps the worst).
inline constexpr std::size_t kMaxTargets = 64;

struct MitigationPolicy {
  /// Stage enablement. Both false (the default) = empty policy: the
  /// controller installs nothing and the run is a byte-exact no-op.
  /// rate_limit only: engage throttles, never drops. quarantine only:
  /// engage drops directly (no intermediate throttle stage).
  bool rate_limit_enabled = false;
  bool quarantine_enabled = false;

  /// Further consecutive alarm periods at rate-limit before escalating
  /// to quarantine.
  std::int64_t escalate_after = 3;
  /// Probation length at rate-limit after leaving quarantine: this many
  /// further quiet periods before the source returns to observe. An
  /// alarm during probation is a probe failure -> immediate
  /// re-quarantine and backoff doubling.
  std::int64_t probe_periods = 2;

  /// True when any stage is enabled; false = the empty no-op policy.
  [[nodiscard]] bool enabled() const {
    return rate_limit_enabled || quarantine_enabled;
  }

  void validate() const {
    if (escalate_after < 1) {
      throw std::invalid_argument(
          "MitigationPolicy: escalate_after must be >= 1");
    }
    if (probe_periods < 0) {
      throw std::invalid_argument(
          "MitigationPolicy: probe_periods must be >= 0");
    }
  }

  /// The full staged response: observe -> rate-limit -> quarantine.
  [[nodiscard]] static MitigationPolicy staged_defaults() {
    MitigationPolicy p;
    p.rate_limit_enabled = true;
    p.quarantine_enabled = true;
    return p;
  }
  /// Throttle but never drop (conservative collateral profile).
  [[nodiscard]] static MitigationPolicy rate_limit_only() {
    MitigationPolicy p;
    p.rate_limit_enabled = true;
    return p;
  }
  /// Drop on engagement, no intermediate throttle (fastest mitigation,
  /// worst false-positive cost).
  [[nodiscard]] static MitigationPolicy quarantine_only() {
    MitigationPolicy p;
    p.quarantine_enabled = true;
    return p;
  }
};

}  // namespace syndog::mitigate
