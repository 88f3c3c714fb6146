#include "syndog/mitigate/controller.hpp"

#include <algorithm>

#include "syndog/core/locator.hpp"

namespace syndog::mitigate {

MitigationController::MitigationController(core::SynDogAgent& agent,
                                           sim::LeafRouter& router,
                                           MitigationPolicy policy)
    : agent_(agent), stub_prefix_(router.stub_prefix()),
      policy_(policy) {
  policy_.validate();
  release_threshold_ =
      kReleaseFraction * agent_.detector().params().threshold;
  if (!policy_.enabled()) return;  // empty policy: install nothing
  agent_.add_period_callback(
      [this](const core::PeriodReport& report, core::AgentHealth health,
             util::SimTime now) { on_period(report, health, now); });
  router.set_egress_policer(
      [this](util::SimTime now, const net::Packet& packet) {
        return police(now, packet);
      });
}

void MitigationController::add_edge_listener(EdgeListener listener) {
  if (listener) edge_listeners_.push_back(std::move(listener));
}

Stage MitigationController::aggregate_stage() const {
  Stage worst = Stage::kObserve;
  for (const auto& [mac, target] : targets_) {
    worst = std::max(worst, target.stage);
  }
  return worst;
}

void MitigationController::transition(util::SimTime now, net::MacAddress mac,
                                      Target& target, Stage to,
                                      EdgeReason reason) {
  const Stage from = target.stage;
  target.stage = to;
  switch (reason) {
    case EdgeReason::kEngage:
      ++stats_.engagements;
      break;
    case EdgeReason::kEscalate:
      ++stats_.escalations;
      break;
    case EdgeReason::kRelease:
    case EdgeReason::kProbePassed:
      ++stats_.releases;
      break;
    case EdgeReason::kProbeFailed:
      ++stats_.probe_failures;
      break;
  }
  if (to == Stage::kQuarantine) ++stats_.quarantine_entries;
  if (to == Stage::kObserve) ++stats_.full_releases;
  const StageEdge edge{now, mac, from, to, reason};
  for (const EdgeListener& listener : edge_listeners_) listener(edge);
}

void MitigationController::refresh_targets() {
  for (const core::Suspect& suspect : agent_.locator().suspects()) {
    if (suspect.spoofed_syns < kMinSpoofedEvidence) continue;
    if (targets_.size() >= kMaxTargets &&
        !targets_.contains(suspect.mac)) {
      continue;  // suspects() is ranked, so the cap keeps the worst
    }
    targets_.try_emplace(suspect.mac);
  }
}

void MitigationController::on_period(const core::PeriodReport& report,
                                     core::AgentHealth health,
                                     util::SimTime now) {
  if (report.alarm && health != core::AgentHealth::kHealthy) {
    // Degraded evidence (post-outage quarantine, collapse fallback, gap
    // accounting): never engage on it, and don't let it advance streaks.
    ++stats_.vetoed_alarm_periods;
    return;
  }

  if (report.alarm) {
    refresh_targets();
    for (auto& [mac, target] : targets_) {
      ++target.alarm_streak;
      target.quiet_streak = 0;
      target.clean_periods = 0;
      if (target.stage == Stage::kObserve) {
        if (target.alarm_streak >= kEngageAfter) {
          if (target.engage_count > 0) {
            target.backoff = std::min(target.backoff * 2, kBackoffMax);
          }
          ++target.engage_count;
          if (first_stage() == Stage::kRateLimit) {
            target.bucket.emplace(kRateLimitSynPerS, kRateLimitBurst, now);
          }
          transition(now, mac, target, first_stage(), EdgeReason::kEngage);
        }
      } else if (target.stage == Stage::kRateLimit) {
        if (target.probe_remaining > 0) {
          // Alarm during probation: the source was released too early.
          target.probe_remaining = 0;
          target.backoff = std::min(target.backoff * 2, kBackoffMax);
          target.bucket.reset();
          transition(now, mac, target, Stage::kQuarantine,
                     EdgeReason::kProbeFailed);
        } else if (policy_.quarantine_enabled &&
                   target.alarm_streak >=
                       kEngageAfter + policy_.escalate_after) {
          target.bucket.reset();
          transition(now, mac, target, Stage::kQuarantine,
                     EdgeReason::kEscalate);
        }
      }
    }
    return;
  }

  // No alarm this period. A period counts toward release only once the
  // statistic has decayed below the release threshold — hysteresis, so a
  // y hovering just under N cannot ping-pong the stage.
  const bool quiet = report.y < release_threshold_;
  for (auto& [mac, target] : targets_) {
    target.alarm_streak = 0;
    if (!quiet) {
      target.quiet_streak = 0;
      continue;
    }
    ++target.quiet_streak;
    if (target.stage == Stage::kQuarantine) {
      if (target.quiet_streak >= kReleaseAfter * target.backoff) {
        target.quiet_streak = 0;
        if (policy_.rate_limit_enabled) {
          target.probe_remaining = policy_.probe_periods;
          target.bucket.emplace(kRateLimitSynPerS, kRateLimitBurst, now);
          transition(now, mac, target, Stage::kRateLimit,
                     EdgeReason::kRelease);
          if (target.probe_remaining == 0) continue;  // plain rate-limit
        } else {
          transition(now, mac, target, Stage::kObserve,
                     EdgeReason::kRelease);
        }
      }
    } else if (target.stage == Stage::kRateLimit) {
      if (target.probe_remaining > 0) {
        if (--target.probe_remaining == 0) {
          target.quiet_streak = 0;
          target.bucket.reset();
          transition(now, mac, target, Stage::kObserve,
                     EdgeReason::kProbePassed);
        }
      } else if (target.quiet_streak >= kReleaseAfter * target.backoff) {
        target.quiet_streak = 0;
        target.bucket.reset();
        transition(now, mac, target, Stage::kObserve, EdgeReason::kRelease);
      }
    } else {
      ++target.clean_periods;
      if (target.backoff > 1 &&
          target.clean_periods % kBackoffDecayAfter == 0) {
        target.backoff = std::max<std::int64_t>(1, target.backoff / 2);
      }
    }
  }
}

bool MitigationController::police(util::SimTime now,
                                  const net::Packet& packet) {
  if (targets_.empty()) return false;
  if (!packet.tcp || !packet.is_syn()) return false;
  const auto it = targets_.find(packet.eth.src);
  if (it == targets_.end()) return false;
  Target& target = it->second;
  if (target.stage == Stage::kObserve) return false;
  if (target.stage == Stage::kRateLimit) {
    if (target.bucket && target.bucket->try_consume(now)) {
      ++stats_.throttled_syns;
      return false;
    }
  }
  // Quarantined, or rate-limited with no token left: drop, and account
  // the collateral honestly — an in-prefix source address is (or at
  // least claims to be) a legitimate station's traffic.
  if (stub_prefix_.contains(packet.ip.src)) {
    ++stats_.dropped_legit_syns;
    // Collateral correction: this SYN was already tapped but will never
    // draw a SYN/ACK because *we* dropped it. Without the deduction the
    // detector reads the throttle's own collateral as unanswered-SYN
    // evidence and the statistic can stay pinned above the release
    // threshold indefinitely (mitigation-induced alarm lock-in). Spoofed
    // drops are deliberately NOT discounted — a throttled flood must
    // keep banking alarm evidence so escalation and release hysteresis
    // see the attack, not the throttle.
    agent_.discount_outbound_syns();
  } else {
    ++stats_.dropped_attack_syns;
  }
  return true;
}

}  // namespace syndog::mitigate
