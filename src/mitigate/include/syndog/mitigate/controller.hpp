// Alarm-driven mitigation controller.
//
// Subscribes to a core::SynDogAgent's period stream and drives the
// MitigationPolicy state machine per flooding source (MAC station, the
// locator's evidence unit), enforcing it with an egress policer on the
// sim::LeafRouter: rate-limited sources pass their SYNs through a token
// bucket, quarantined sources have their SYNs dropped. Non-SYN segments
// are never touched, so established connections survive mitigation.
//
// Trust model: only *healthy* alarm periods drive engagement. The
// agent's degradation layer already withholds alarm callbacks during
// post-blind quarantine, but the period stream still reports alarm=true
// with health=degraded — the controller vetoes those, so a chaos window
// (tap outage, asymmetric route) can never quarantine a station.
// Discarded periods (blind, collapse-absorbed) produce no period
// callback at all and therefore neither engage nor release anything.
//
// An empty policy installs no hooks: construction with
// MitigationPolicy{} leaves the agent and router byte-identical to a run
// without a controller.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "syndog/core/agent.hpp"
#include "syndog/mitigate/policy.hpp"
#include "syndog/mitigate/token_bucket.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/util/time.hpp"

namespace syndog::mitigate {

/// Collateral and decision accounting.
struct ControllerStats {
  std::uint64_t engagements = 0;       ///< observe -> first enabled stage
  std::uint64_t escalations = 0;       ///< rate-limit -> quarantine
  std::uint64_t quarantine_entries = 0;///< edges entering quarantine
  std::uint64_t releases = 0;          ///< downward stage edges
  std::uint64_t full_releases = 0;     ///< edges arriving back at observe
  std::uint64_t probe_failures = 0;
  std::uint64_t vetoed_alarm_periods = 0;  ///< alarms ignored: not healthy
  std::uint64_t throttled_syns = 0;    ///< SYNs consumed a token and passed
  std::uint64_t dropped_attack_syns = 0;   ///< dropped, spoofed source
  std::uint64_t dropped_legit_syns = 0;    ///< dropped, in-prefix source
};

class MitigationController {
 public:
  /// One stage transition for one policed source.
  struct StageEdge {
    util::SimTime at;
    net::MacAddress target;
    Stage from = Stage::kObserve;
    Stage to = Stage::kObserve;
    EdgeReason reason = EdgeReason::kEngage;
  };
  using EdgeListener = std::function<void(const StageEdge&)>;

  /// Hooks `agent`'s period stream and installs the egress policer on
  /// `router`; both must outlive the controller. A policy with no stage
  /// enabled installs neither hook (the empty-policy no-op invariant).
  MitigationController(core::SynDogAgent& agent, sim::LeafRouter& router,
                       MitigationPolicy policy);

  MitigationController(const MitigationController&) = delete;
  MitigationController& operator=(const MitigationController&) = delete;

  /// Appends a stage-edge subscriber (MitigationRecorder uses this).
  void add_edge_listener(EdgeListener listener);

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  /// Most severe stage across all tracked targets (the telemetry
  /// "mitigation" series value).
  [[nodiscard]] Stage aggregate_stage() const;
  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }

 private:
  struct Target {
    Stage stage = Stage::kObserve;
    std::int64_t alarm_streak = 0;
    std::int64_t quiet_streak = 0;
    std::int64_t probe_remaining = 0;  ///< > 0: on probation at rate-limit
    std::int64_t backoff = 1;          ///< release-streak multiplier
    std::int64_t clean_periods = 0;    ///< at observe, for backoff decay
    std::int64_t engage_count = 0;
    std::optional<TokenBucket> bucket;
  };

  void on_period(const core::PeriodReport& report, core::AgentHealth health,
                 util::SimTime now);
  /// Egress policer: true = drop this packet.
  bool police(util::SimTime now, const net::Packet& packet);
  void refresh_targets();
  void transition(util::SimTime now, net::MacAddress mac, Target& target,
                  Stage to, EdgeReason reason);
  [[nodiscard]] Stage first_stage() const {
    return policy_.rate_limit_enabled ? Stage::kRateLimit
                                      : Stage::kQuarantine;
  }

  core::SynDogAgent& agent_;
  net::Ipv4Prefix stub_prefix_;
  MitigationPolicy policy_;
  double release_threshold_ = 0.0;  ///< kReleaseFraction * N
  ControllerStats stats_;
  // std::map: iterated every period; MacAddress orders via <=> and the
  // deterministic order keeps stage-edge sequences reproducible.
  std::map<net::MacAddress, Target> targets_;
  std::vector<EdgeListener> edge_listeners_;
};

}  // namespace syndog::mitigate
