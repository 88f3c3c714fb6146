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
// MitigationPolicy holds every knob. A default-constructed policy is
// *empty*: no stage is enabled, and a MitigationController built from it
// installs no hooks at all — the run is byte-identical to one without a
// controller (the fault-subsystem invariant).
#pragma once

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

struct MitigationPolicy {
  /// Stage enablement. Both false (the default) = empty policy: the
  /// controller installs nothing and the run is a byte-exact no-op.
  /// rate_limit only: engage throttles, never drops. quarantine only:
  /// engage drops directly (no intermediate throttle stage).
  bool rate_limit_enabled = false;
  bool quarantine_enabled = false;

  /// Consecutive *trusted* alarm periods before a suspect leaves observe
  /// (trusted = the agent reported the period healthy when
  /// require_healthy is set).
  std::int64_t engage_after = 1;
  /// Further consecutive alarm periods at rate-limit before escalating
  /// to quarantine.
  std::int64_t escalate_after = 3;

  /// Token bucket for the rate-limit stage, applied per source MAC to
  /// its outbound SYNs only (non-SYN segments always pass, so
  /// established connections survive the throttle). The default sits
  /// below a classic victim's half-open budget (128 slots / 75 s ~ 1.7
  /// slots/s), so a throttled flood can no longer keep a backlog full.
  double rate_limit_syn_per_s = 1.0;
  double rate_limit_burst = 4.0;

  /// A no-alarm period counts toward release only when the CUSUM has
  /// genuinely decayed: y < release_fraction * N. (Right below N the
  /// statistic is one bad period away from re-alarming.)
  double release_fraction = 0.5;
  /// Quiet periods (scaled by the per-target backoff multiplier) per
  /// downward stage step.
  std::int64_t release_after = 3;
  /// Probation length at rate-limit after leaving quarantine: this many
  /// further quiet periods before the source returns to observe. An
  /// alarm during probation is a probe failure -> immediate
  /// re-quarantine and backoff doubling.
  std::int64_t probe_periods = 2;

  /// Re-arm backoff: each re-engagement or probe failure doubles the
  /// target's release-streak multiplier, up to backoff_max; it halves
  /// back after backoff_decay_after consecutive clean periods at
  /// observe. (The agent health machine's quarantine backoff, applied to
  /// the response side.)
  std::int64_t backoff_max = 8;
  std::int64_t backoff_decay_after = 8;

  /// A locator suspect becomes a target only with at least this many
  /// spoofed SYNs on record — stations that never spoofed are not
  /// throttled on the strength of someone else's alarm.
  std::uint64_t min_spoofed_evidence = 1;
  /// Cap on concurrently tracked targets (oldest evidence wins: the
  /// locator ranks by spoofed count, so the cap keeps the worst).
  std::size_t max_targets = 64;
  /// Only act on periods the agent reports healthy. Degraded evidence
  /// (post-outage quarantine, SYN/ACK collapse, gap accounting) can
  /// alarm spuriously; a policy that trusts it will throttle innocents
  /// on a faulted tap.
  bool require_healthy = true;

  /// True when any stage is enabled; false = the empty no-op policy.
  [[nodiscard]] bool enabled() const {
    return rate_limit_enabled || quarantine_enabled;
  }

  void validate() const {
    if (engage_after < 1 || escalate_after < 1) {
      throw std::invalid_argument(
          "MitigationPolicy: engage/escalate streaks must be >= 1");
    }
    if (rate_limit_enabled &&
        !(rate_limit_syn_per_s > 0.0 && rate_limit_burst >= 1.0)) {
      throw std::invalid_argument(
          "MitigationPolicy: token bucket needs rate > 0 and burst >= 1");
    }
    if (!(release_fraction > 0.0 && release_fraction <= 1.0)) {
      throw std::invalid_argument(
          "MitigationPolicy: release_fraction in (0, 1]");
    }
    if (release_after < 1 || probe_periods < 0) {
      throw std::invalid_argument(
          "MitigationPolicy: release_after >= 1, probe_periods >= 0");
    }
    if (backoff_max < 1 || backoff_decay_after < 1) {
      throw std::invalid_argument(
          "MitigationPolicy: backoff knobs must be >= 1");
    }
    if (max_targets < 1) {
      throw std::invalid_argument("MitigationPolicy: max_targets >= 1");
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
