#include "syndog/core/syndog.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace syndog::core {

void SynDogParams::validate() const {
  if (!(a > 0.0)) {
    throw std::invalid_argument("SynDogParams: a must be positive");
  }
  if (!(h > a)) {
    throw std::invalid_argument(
        "SynDogParams: h must exceed a (detectable drift)");
  }
  if (!(threshold > 0.0)) {
    throw std::invalid_argument("SynDogParams: threshold must be positive");
  }
  if (!(ewma_alpha > 0.0 && ewma_alpha < 1.0)) {
    throw std::invalid_argument("SynDogParams: ewma_alpha in (0,1)");
  }
  if (observation_period <= util::SimTime::zero()) {
    throw std::invalid_argument(
        "SynDogParams: observation_period must be positive");
  }
  if (x_clamp_negative < 0.0) {
    throw std::invalid_argument(
        "SynDogParams: x_clamp_negative must be >= 0 (0 disables)");
  }
}

SynDogParams SynDogParams::site_tuned_unc() {
  SynDogParams p;
  p.a = 0.2;
  p.h = 0.4;
  p.threshold = 0.6;
  return p;
}

SynDog::SynDog(SynDogParams params)
    : params_(params),
      cusum_(detect::NonParametricCusumParams{params.a, params.threshold,
                                              params.statistic_cap}),
      k_(params.ewma_alpha) {
  params_.validate();
}

double SynDog::k() const {
  return k_.primed() ? k_.value() : 0.0;
}

void SynDog::attach_observer(obs::Registry* registry) {
  registry_ = registry;
  if (registry != nullptr) {
    periods_counter_ = &registry->counter("syndog.periods");
    alarm_periods_counter_ = &registry->counter("syndog.alarm_periods");
    alarms_raised_counter_ = &registry->counter("syndog.alarms_raised");
    k_gauge_ = &registry->gauge("syndog.k");
    y_gauge_ = &registry->gauge("syndog.y");
  } else {
    periods_counter_ = nullptr;
    alarm_periods_counter_ = nullptr;
    alarms_raised_counter_ = nullptr;
    k_gauge_ = nullptr;
    y_gauge_ = nullptr;
  }
}

PeriodReport SynDog::observe_period(std::int64_t syn_count,
                                    std::int64_t syn_ack_count) {
  if (syn_count < 0 || syn_ack_count < 0) {
    throw std::invalid_argument("SynDog: negative packet count");
  }
  PeriodReport report;
  report.period_index = periods_++;
  report.syn_count = syn_count;
  report.syn_ack_count = syn_ack_count;
  report.delta =
      static_cast<double>(syn_count) - static_cast<double>(syn_ack_count);

  // Normalize by the estimate formed *before* this period, so an attack
  // surge in the current counts cannot deflate its own normalization; on
  // the very first period, fall back to the current SYN/ACK count.
  const double k_prev = k_.primed()
                            ? k_.value()
                            : static_cast<double>(syn_ack_count);
  report.x = report.delta / std::max(k_prev, kKFloor);
  if (params_.x_clamp_negative > 0.0 &&
      report.x < -params_.x_clamp_negative) {
    report.x = -params_.x_clamp_negative;
    report.x_clamped = true;
  }

  // Eq. (1): update the level estimate. The SYN/ACK side is driven by
  // legitimate traffic only (a spoofed flood draws no SYN/ACKs), so the
  // estimate stays honest during an attack.
  k_.add(static_cast<double>(syn_ack_count));
  report.k_estimate = k_.value();

  const detect::Decision decision = cusum_.update(report.x);
  report.y = decision.statistic;
  report.alarm = decision.alarm;
  const bool was_alarmed = last_alarm_;
  last_alarm_ = decision.alarm;

  if (periods_counter_ != nullptr) {
    periods_counter_->add();
    if (report.alarm) {
      alarm_periods_counter_->add();
      if (!was_alarmed) alarms_raised_counter_->add();
    }
    if (report.x_clamped) {
      registry_->counter("syndog.x_clamped_periods").add();
    }
    k_gauge_->set(report.k_estimate);
    y_gauge_->set(report.y);
  }
  return report;
}

void SynDog::reset() {
  cusum_.reset();
  k_.reset();
  periods_ = 0;
  gap_periods_ = 0;
  last_alarm_ = false;
}

void SynDog::rearm() {
  cusum_.reset();
  last_alarm_ = false;
}

void SynDog::note_gap_periods(std::int64_t n) {
  if (n < 0) {
    throw std::invalid_argument("SynDog: negative gap period count");
  }
  periods_ += n;
  gap_periods_ += n;
  if (n > 0 && registry_ != nullptr) {
    registry_->counter("syndog.gap_periods")
        .add(static_cast<std::uint64_t>(n));
  }
}

double SynDog::min_detectable_rate(double c) const {
  return min_detectable_rate(params_.a, c, k(), params_.observation_period);
}

double SynDog::min_detectable_rate(double a, double c, double k_bar,
                                   util::SimTime t0) {
  if (t0 <= util::SimTime::zero()) {
    throw std::invalid_argument("min_detectable_rate: t0 must be positive");
  }
  return (a - c) * k_bar / t0.to_seconds();
}

double SynDog::expected_detection_periods(double fi, double c) const {
  const double k_bar = k();
  if (k_bar <= 0.0) return std::numeric_limits<double>::infinity();
  // During an attack the mean of Xn increases by fi*t0/K; Eq. (7) with
  // that drift, the normal mean c, and offset a.
  const double drift =
      fi * params_.observation_period.to_seconds() / k_bar + c - params_.a;
  if (drift <= 0.0) return std::numeric_limits<double>::infinity();
  return params_.threshold / drift;
}

std::vector<PeriodReport> run_over_series(
    const SynDogParams& params, const std::vector<std::int64_t>& syns,
    const std::vector<std::int64_t>& syn_acks, obs::Registry* registry) {
  if (syns.size() != syn_acks.size()) {
    throw std::invalid_argument("run_over_series: series size mismatch");
  }
  SynDog dog(params);
  dog.attach_observer(registry);
  std::vector<PeriodReport> reports;
  reports.reserve(syns.size());
  for (std::size_t n = 0; n < syns.size(); ++n) {
    reports.push_back(dog.observe_period(syns[n], syn_acks[n]));
  }
  return reports;
}

}  // namespace syndog::core
