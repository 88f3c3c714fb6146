#include "syndog/core/agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace syndog::core {

void AgentHealthPolicy::validate() const {
  if (!(gap_tolerance > 1.0)) {
    throw std::invalid_argument(
        "AgentHealthPolicy: gap_tolerance must exceed 1");
  }
  if (!(collapse_fraction > 0.0 && collapse_fraction < 1.0)) {
    throw std::invalid_argument(
        "AgentHealthPolicy: collapse_fraction in (0,1)");
  }
  if (!(collapse_min_k > 0.0) || collapse_min_syn < 0) {
    throw std::invalid_argument(
        "AgentHealthPolicy: collapse guards must be positive");
  }
  if (outage_patience < 1) {
    throw std::invalid_argument(
        "AgentHealthPolicy: outage_patience must be >= 1");
  }
  if (quarantine_initial < 1 || quarantine_max < quarantine_initial) {
    throw std::invalid_argument(
        "AgentHealthPolicy: quarantine lengths must satisfy 1 <= initial "
        "<= max");
  }
  if (heal_after < 1 || backoff_decay_after < 1) {
    throw std::invalid_argument(
        "AgentHealthPolicy: healing horizons must be >= 1");
  }
}

SynDogAgent::SynDogAgent(net::Ipv4Prefix stub_prefix,
                         sim::Scheduler& scheduler, SynDogParams params,
                         AlarmCallback on_alarm, AgentMode mode)
    : scheduler_(scheduler), params_(params), mode_(mode), syndog_(params),
      locator_(stub_prefix), on_alarm_(std::move(on_alarm)) {
  policy_.validate();
  backoff_periods_ = policy_.quarantine_initial;
  last_rollover_ = scheduler_.now();
  schedule_next_period();
}

SynDogAgent::SynDogAgent(sim::LeafRouter& router, sim::Scheduler& scheduler,
                         SynDogParams params, AlarmCallback on_alarm,
                         AgentMode mode)
    : SynDogAgent(router.stub_prefix(), scheduler, params,
                  std::move(on_alarm), mode) {
  router.add_outbound_tap(
      [this](util::SimTime at, const net::Packet& packet) {
        on_outbound(at, packet);
      });
  router.add_inbound_tap([this](util::SimTime at, const net::Packet& packet) {
    on_inbound(at, packet);
  });
}

void SynDogAgent::on_interface(Interface side, util::SimTime at,
                               const net::Packet& packet) {
  if (side == counted_interfaces(mode_).syns) {
    const classify::SegmentKind kind = outbound_.on_packet(packet);
    if (outbound_metrics_) outbound_metrics_->on_segment(kind);
    // SYN emitters are on the local segment only in first-mile mode;
    // in last-mile mode the sources are beyond the router, so there is
    // no MAC evidence to gather.
    if (mode_ == AgentMode::kFirstMile) locator_.on_packet(at, packet);
  } else {
    const classify::SegmentKind kind = inbound_.on_packet(packet);
    if (inbound_metrics_) inbound_metrics_->on_segment(kind);
  }
}

void SynDogAgent::attach_observer(obs::Registry& registry) {
  registry_ = &registry;
  syndog_.attach_observer(&registry);
  outbound_metrics_.emplace(registry, "sniffer.out");
  inbound_metrics_.emplace(registry, "sniffer.in");
}

void SynDogAgent::add_period_callback(PeriodCallback cb) {
  if (cb) on_period_.push_back(std::move(cb));
}

void SynDogAgent::set_health_policy(AgentHealthPolicy policy) {
  policy.validate();
  policy_ = policy;
  backoff_periods_ = std::clamp(backoff_periods_, policy_.quarantine_initial,
                                policy_.quarantine_max);
}

void SynDogAgent::notify_sniffer_outage(bool active) {
  if (active == outage_active_) return;
  outage_active_ = active;
  if (active) {
    outage_touched_ = true;
    clean_streak_ = 0;
    transition(AgentHealth::kBlind);
  }
  // Deactivation is acted on at the next rollover: the partial counters
  // are discarded once more and the agent re-arms through quarantine.
}

void SynDogAgent::stall_until(util::SimTime at) {
  const util::SimTime pending =
      last_rollover_ + params_.observation_period;
  if (at <= pending) return;
  scheduler_.cancel(period_timer_);
  period_timer_ = scheduler_.schedule_at(at, [this] { on_period_end(); });
}

void SynDogAgent::schedule_next_period() {
  period_timer_ = scheduler_.schedule_after(params_.observation_period,
                                            [this] { on_period_end(); });
}

void SynDogAgent::transition(AgentHealth to) {
  if (health_ == to) return;
  health_ = to;
  if (registry_ != nullptr) {
    registry_->counter("agent.health_transitions").add();
  }
}

void SynDogAgent::begin_quarantine() {
  // The statistic accumulated before/through the blind interval mixes
  // real and faulted evidence; discard it but keep K (site level changes
  // slowly) and hold alarms until the detector has re-earned trust.
  syndog_.rearm();
  quarantine_remaining_ = backoff_periods_;
  backoff_periods_ = std::min(backoff_periods_ * 2, policy_.quarantine_max);
  ++recoveries_;
  clean_streak_ = 0;
  if (registry_ != nullptr) registry_->counter("agent.recoveries").add();
  transition(AgentHealth::kDegraded);
}

void SynDogAgent::note_clean_period() {
  ++clean_streak_;
  if (health_ == AgentHealth::kDegraded && quarantine_remaining_ == 0 &&
      clean_streak_ >= policy_.heal_after) {
    transition(AgentHealth::kHealthy);
  }
  if (backoff_periods_ > policy_.quarantine_initial &&
      clean_streak_ % policy_.backoff_decay_after == 0) {
    backoff_periods_ =
        std::max(policy_.quarantine_initial, backoff_periods_ / 2);
  }
}

bool SynDogAgent::synack_collapsed(std::int64_t syns,
                                   std::int64_t syn_acks) const {
  const double k = syndog_.k();
  return k >= policy_.collapse_min_k &&
         syns >= policy_.collapse_min_syn &&
         static_cast<double>(syn_acks) <= policy_.collapse_fraction * k;
}

void SynDogAgent::on_period_end() {
  const util::SimTime now = scheduler_.now();
  const util::SimTime elapsed = now - last_rollover_;
  last_rollover_ = now;

  auto syns = static_cast<std::int64_t>(outbound_.harvest());
  auto syn_acks = static_cast<std::int64_t>(inbound_.harvest());

  // Late rollover (stalled process/timer): the harvest smears over the
  // whole stall. Rescale the counts to one period's worth so Δn and Xn
  // are not inflated by the stall length itself; close_period accounts
  // the missed rollovers as gaps.
  const double ratio = static_cast<double>(elapsed.ns()) /
                       static_cast<double>(params_.observation_period.ns());
  std::int64_t missed = 0;
  if (ratio > policy_.gap_tolerance) {
    missed = std::max<std::int64_t>(
        static_cast<std::int64_t>(std::llround(ratio)) - 1, 1);
    syns = std::llround(static_cast<double>(syns) / ratio);
    syn_acks = std::llround(static_cast<double>(syn_acks) / ratio);
  }
  close_period(now, syns, syn_acks, missed);
  schedule_next_period();
}

void SynDogAgent::close_period(util::SimTime at, std::int64_t syns,
                               std::int64_t syn_acks, std::int64_t missed) {
  // In-prefix SYNs a downstream policer dropped never left the stub (see
  // discount_outbound_syns). Every rollover sheds them here, the timer's
  // and the count-level callers' alike, before any early return; a late
  // harvest arrives already rescaled, so the discount is not divided by
  // the stall.
  if (policed_discount_ != 0) {
    syns = std::max<std::int64_t>(0, syns - policed_discount_);
    policed_discount_ = 0;
  }

  // (a) Rollovers a stalled timer skipped are gaps, not quiet periods.
  if (missed > 0) {
    syndog_.note_gap_periods(missed);
    clean_streak_ = 0;
    transition(AgentHealth::kDegraded);
  }

  // (b) Known sniffer outage: the counters are garbage (partial or zero),
  // not evidence. Discard the period entirely; once the outage ends,
  // re-arm through quarantine.
  if (outage_active_ || outage_touched_) {
    const bool outage_ended = outage_touched_ && !outage_active_;
    outage_touched_ = outage_active_;
    ++blind_periods_;
    if (registry_ != nullptr) registry_->counter("agent.blind_periods").add();
    syndog_.note_gap_periods(1);
    if (outage_ended) begin_quarantine();
    return;
  }

  // (c) SYN/ACK collapse (first-mile only): spoofed floods do not suppress
  // SYN/ACKs — the legitimate background still draws them — so SYNACK ≈ 0
  // against a healthy K means the return path is dead, not that the stub
  // is attacking. Absorb up to outage_patience such periods as gaps; past
  // that, feed raw counts so a genuinely dead link still alarms instead of
  // being masked forever.
  if (mode_ == AgentMode::kFirstMile && synack_collapsed(syns, syn_acks)) {
    ++consecutive_collapsed_;
    if (consecutive_collapsed_ <= policy_.outage_patience) {
      syndog_.note_gap_periods(1);
      clean_streak_ = 0;
      if (registry_ != nullptr) {
        registry_->counter("agent.collapse_periods").add();
      }
      transition(AgentHealth::kDegraded);
      return;
    }
  } else {
    consecutive_collapsed_ = 0;
  }

  const PeriodReport report = syndog_.observe_period(syns, syn_acks);
  history_.push_back(report);

  if (quarantine_remaining_ > 0) {
    --quarantine_remaining_;
    if (report.alarm) {
      ++suppressed_alarm_periods_;
      if (registry_ != nullptr) {
        registry_->counter("agent.suppressed_alarm_periods").add();
      }
    }
  } else if (report.alarm) {
    ever_alarmed_ = true;
    if (first_alarm_period_ < 0) {
      first_alarm_period_ = report.period_index;
    }
    if (on_alarm_) {
      on_alarm_(AlarmEvent{at, report,
                           mode_ == AgentMode::kFirstMile
                               ? locator_.suspects()
                               : std::vector<Suspect>{}});
    }
  }

  if (missed == 0 && consecutive_collapsed_ == 0) note_clean_period();
  for (const PeriodCallback& cb : on_period_) cb(report, health_, at);
}

}  // namespace syndog::core
