// The SYN-dog detection core (paper §3).
//
// Per observation period t0, the router reports the number of outgoing
// SYNs and incoming SYN/ACKs. SYN-dog then computes
//
//   K(n)  = alpha*K(n-1) + (1-alpha)*SYNACK(n)      (Eq. 1, EWMA level)
//   Delta = SYN(n) - SYNACK(n)
//   Xn    = Delta / K(n-1)                           (normalization)
//   yn    = max(0, y(n-1) + Xn - a)                  (Eq. 2, CUSUM)
//   alarm iff yn > N                                 (Eq. 4)
//
// Only two counters and three scalars of state: the statelessness that
// makes the agent itself immune to flooding. Normalizing by K removes
// dependence on site size and time-of-day, so a = 0.35, N = 1.05 work
// universally (h = 2a = 0.7 is the designed attack drift; N is chosen for
// a 3-period target detection time via Eq. 7).
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/detect/cusum.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/stats/online.hpp"
#include "syndog/util/time.hpp"

namespace syndog::core {

/// Floor applied to K before dividing, so an idle link (K -> 0) degrades
/// into "count raw SYNs" instead of dividing by zero.
inline constexpr double kKFloor = 1.0;

struct SynDogParams {
  double a = 0.35;           ///< upper bound on E[Xn] under normal operation
  double h = 0.70;           ///< assumed attack drift lower bound (= 2a)
  double threshold = 1.05;   ///< flooding threshold N
  double ewma_alpha = 0.9;   ///< memory of the K estimator (Eq. 1)
  util::SimTime observation_period = util::SimTime::seconds(20);  ///< t0
  /// Bounded-CUSUM cap on yn (0 = unbounded, the paper's exact form).
  /// Capping at a few multiples of N bounds how long the alarm outlives a
  /// long flood without changing when it fires.
  double statistic_cap = 0.0;
  /// Floor applied to Xn: Xn := max(Xn, -x_clamp_negative). The paper's
  /// normal model assumes E[Xn] <= a with small variance; a fault (SYN/ACK
  /// burst released after an outage, duplicated SYN/ACKs, replayed
  /// retransmissions) can produce SYNACK >> SYN in one period and an
  /// arbitrarily negative Xn. Since yn = max(0, y+Xn-a) already absorbs
  /// any single negative step, the clamp only limits how much *credit* a
  /// fault can bank against the alarm — it cannot delay detection of a
  /// genuine flood by more than one period's worth of drift. 0 disables
  /// (paper-exact behaviour).
  double x_clamp_negative = 0.7;

  void validate() const;

  /// The paper's universal parameterization (§3.2).
  [[nodiscard]] static SynDogParams paper_defaults() { return {}; }
  /// The site-tuned variant of §4.2.3 / Fig. 9: a=0.2, N=0.6 (UNC), which
  /// lowers f_min from 37 to ~15 SYN/s without added false alarms.
  [[nodiscard]] static SynDogParams site_tuned_unc();
};

/// Everything SYN-dog derives in one observation period.
struct PeriodReport {
  std::int64_t period_index = 0;
  std::int64_t syn_count = 0;      ///< outgoing SYNs this period
  std::int64_t syn_ack_count = 0;  ///< incoming SYN/ACKs this period
  double k_estimate = 0.0;         ///< K(n) after the update
  double delta = 0.0;              ///< SYN - SYNACK
  double x = 0.0;                  ///< normalized difference Xn
  double y = 0.0;                  ///< CUSUM statistic yn
  bool alarm = false;              ///< yn > N
  bool x_clamped = false;          ///< Xn hit the negative clamp

  /// Exact (bitwise on the doubles) comparison; the campaign
  /// oracle-equivalence tests compare whole period tables with this.
  [[nodiscard]] bool operator==(const PeriodReport&) const = default;
};

class SynDog {
 public:
  explicit SynDog(SynDogParams params);

  /// Feeds one period's counters; returns the full derivation.
  PeriodReport observe_period(std::int64_t syn_count,
                              std::int64_t syn_ack_count);

  /// Attaches the "syndog.*" instruments of `registry` (nullptr
  /// detaches; must outlive the detector), which each observe_period()
  /// then updates. Purely observational: detection behaviour is identical
  /// with or without a registry.
  void attach_observer(obs::Registry* registry);

  [[nodiscard]] const SynDogParams& params() const { return params_; }
  [[nodiscard]] double y() const { return cusum_.statistic(); }
  [[nodiscard]] double k() const;
  [[nodiscard]] std::int64_t periods_observed() const { return periods_; }
  /// Periods the detector knows it missed (note_gap_periods).
  [[nodiscard]] std::int64_t gap_periods() const { return gap_periods_; }
  /// True if the most recent period alarmed.
  [[nodiscard]] bool alarmed() const { return last_alarm_; }
  void reset();

  /// Quarantined self-reset: zeroes the CUSUM statistic and the alarm
  /// latch but *keeps* the K estimate and the period counter. Used after a
  /// blind interval (sniffer outage, link death): the accumulated yn is
  /// contaminated by the fault, but K reflects slow site-level state that
  /// an outage does not invalidate.
  void rearm();

  /// Accounts `n` observation periods the sniffers missed entirely (tap
  /// outage, stalled timer). The period index advances so it stays
  /// aligned with the DES clock, and the miss is counted —
  /// K and yn are left untouched, because "no data" is not "zero SYNs":
  /// feeding zeros would both crash K and bank spurious negative drift.
  void note_gap_periods(std::int64_t n);

  /// Eq. (8): the minimum attack SYN rate this instance can eventually
  /// detect, f_min = (a - c) * K / t0, evaluated at the current K estimate
  /// and an assumed normal mean c (default 0, the paper's conservative
  /// choice).
  [[nodiscard]] double min_detectable_rate(double c = 0.0) const;
  [[nodiscard]] static double min_detectable_rate(double a, double c,
                                                  double k_bar,
                                                  util::SimTime t0);

  /// Eq. (7): conservative detection delay (in periods) for an attack of
  /// rate `fi` SYN/s, given the current K estimate:
  /// N / (fi*t0/K + c - a). +inf below the detectable floor.
  [[nodiscard]] double expected_detection_periods(double fi,
                                                  double c = 0.0) const;

 private:
  SynDogParams params_;
  detect::NonParametricCusum cusum_;
  stats::Ewma k_;
  std::int64_t periods_ = 0;
  std::int64_t gap_periods_ = 0;
  bool last_alarm_ = false;

  // Telemetry (optional; see attach_observer). The registry pointer is
  // kept so fault-only instruments ("syndog.gap_periods",
  // "syndog.x_clamped_periods") can be created lazily: they appear in a
  // snapshot only once the condition has occurred, keeping fault-free runs
  // byte-identical to builds that predate them.
  obs::Registry* registry_ = nullptr;
  obs::Counter* periods_counter_ = nullptr;
  obs::Counter* alarm_periods_counter_ = nullptr;
  obs::Counter* alarms_raised_counter_ = nullptr;
  obs::Gauge* k_gauge_ = nullptr;
  obs::Gauge* y_gauge_ = nullptr;
};

/// Batch helper: runs SYN-dog over parallel per-period count series and
/// returns the reports (used by the trace-driven benches and tests). A
/// given `registry` is attached for the run.
[[nodiscard]] std::vector<PeriodReport> run_over_series(
    const SynDogParams& params, const std::vector<std::int64_t>& syns,
    const std::vector<std::int64_t>& syn_acks,
    obs::Registry* registry = nullptr);

}  // namespace syndog::core
