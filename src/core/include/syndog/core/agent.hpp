// The deployable SYN-dog agent.
//
// Counts the packets crossing a stub's two leaf-router interfaces with
// its two sniffers, wakes up every observation period to exchange their
// counts (the paper's "coordinate via shared memory / IPC" step), feeds
// the CUSUM core, and invokes the alarm callback — with localization
// evidence — when the statistic crosses the flooding threshold. Packets
// arrive through one entry, on_outbound/on_inbound: a simulated
// sim::LeafRouter's interface taps call it, and so does the capture
// demultiplexer (ingest::AgentDemux), which has no router.
//
// The agent also owns the *graceful-degradation* layer the paper's
// idealized deployment does not need: a health state machine (healthy ->
// degraded -> blind) that keeps the detector honest when the first mile
// itself misbehaves — sniffer/tap outages, stalled period timers, and
// SYN/ACK collapse (dead downlink). Faulted periods are gap-accounted
// (SynDog::note_gap_periods), never fed as fake zeros, and recovery from
// a blind interval passes through a quarantined self-reset with
// exponential backoff before alarms are trusted again.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "syndog/classify/instrument.hpp"
#include "syndog/core/locator.hpp"
#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"

namespace syndog::core {

struct AlarmEvent {
  util::SimTime at;
  PeriodReport report;
  /// MAC-level evidence gathered since the last reset (paper §4.2.3).
  /// Empty in last-mile mode: the sources are not on this router's LAN.
  std::vector<Suspect> suspects;
};

/// Which SYN–SYN/ACK pair the agent watches (paper Fig. 6 deploys both).
enum class AgentMode : std::uint8_t {
  /// At the *sources'* leaf router: outgoing SYNs vs incoming SYN/ACKs.
  /// Detects floods leaving the stub and can localize the stations.
  kFirstMile,
  /// At the *victim's* leaf router: incoming SYNs vs outgoing SYN/ACKs.
  /// Detects an arriving flood — but only once the victim stops answering
  /// (backlog exhausted), and it cannot see past the router toward the
  /// sources. The first-mile/last-mile bench quantifies that asymmetry.
  kLastMile,
};

/// A leaf router's two monitored interfaces (paper Fig. 2).
enum class Interface : std::uint8_t { kOutbound, kInbound };

/// The interfaces an agent's two counts come from.
struct CountedInterfaces {
  Interface syns;      ///< where the watched SYNs cross
  Interface syn_acks;  ///< where the watched SYN/ACKs cross
};

/// The mode-to-interface rule. First mile: outgoing SYNs vs incoming
/// SYN/ACKs. Last mile: the flood arrives through the inbound interface
/// and the victim's SYN/ACKs leave through the outbound one.
[[nodiscard]] constexpr CountedInterfaces counted_interfaces(AgentMode mode) {
  return mode == AgentMode::kFirstMile
             ? CountedInterfaces{Interface::kOutbound, Interface::kInbound}
             : CountedInterfaces{Interface::kInbound, Interface::kOutbound};
}

/// Agent operational health (the fleet telemetry "health" series).
enum class AgentHealth : std::uint8_t {
  kHealthy = 0,   ///< counters trusted, alarms live
  kDegraded = 1,  ///< partial evidence (gaps, collapse, quarantine)
  kBlind = 2,     ///< sniffers known dead; periods are discarded
};

/// Tunables for the degradation layer. Periods are observation periods.
struct AgentHealthPolicy {
  /// A rollover arriving later than gap_tolerance * t0 after the previous
  /// one is treated as a stall: the missed periods are gap-accounted and
  /// the harvested counts are rescaled to per-period rates.
  double gap_tolerance = 1.5;
  /// SYN/ACK collapse test (first-mile only): SYNACK(n) <=
  /// collapse_fraction * K while K >= collapse_min_k and SYN(n) >=
  /// collapse_min_syn. A spoofed flood does not suppress SYN/ACKs (the
  /// legitimate background still draws them), so a collapse indicates a
  /// dead return path, not an attack.
  double collapse_fraction = 0.05;
  double collapse_min_k = 20.0;
  std::int64_t collapse_min_syn = 20;
  /// Collapsed periods absorbed as gaps before the agent gives up on the
  /// heuristic and feeds raw counts again (so a sustained dead link still
  /// eventually alarms rather than being masked forever).
  std::int64_t outage_patience = 4;
  /// Quarantine length after a blind interval, in periods; doubles on each
  /// successive blind interval (exponential backoff) up to quarantine_max.
  std::int64_t quarantine_initial = 2;
  std::int64_t quarantine_max = 16;
  /// Consecutive clean (fed, fault-free) periods before kDegraded heals
  /// back to kHealthy.
  std::int64_t heal_after = 2;
  /// Consecutive clean periods before the quarantine backoff halves back
  /// toward quarantine_initial.
  std::int64_t backoff_decay_after = 8;

  void validate() const;
};

class SynDogAgent {
 public:
  using AlarmCallback = std::function<void(const AlarmEvent&)>;

  /// An agent for the stub `stub_prefix`, fed through on_outbound and
  /// on_inbound. Starts the periodic timer on `scheduler`, which must
  /// outlive the agent.
  SynDogAgent(net::Ipv4Prefix stub_prefix, sim::Scheduler& scheduler,
              SynDogParams params, AlarmCallback on_alarm = {},
              AgentMode mode = AgentMode::kFirstMile);
  /// The same agent for `router`'s stub, fed by two taps on `router` that
  /// call on_outbound and on_inbound. `router` must outlive the agent.
  SynDogAgent(sim::LeafRouter& router, sim::Scheduler& scheduler,
              SynDogParams params, AlarmCallback on_alarm = {},
              AgentMode mode = AgentMode::kFirstMile);

  SynDogAgent(const SynDogAgent&) = delete;
  SynDogAgent& operator=(const SynDogAgent&) = delete;

  /// The one packet-counting path: `packet` crosses the stub's outbound
  /// (on_outbound) or inbound (on_inbound) interface at `at`.
  /// counted_interfaces(mode) picks the sniffer that sees it; in
  /// first-mile mode the SYN side also feeds the locator.
  void on_outbound(util::SimTime at, const net::Packet& packet) {
    on_interface(Interface::kOutbound, at, packet);
  }
  void on_inbound(util::SimTime at, const net::Packet& packet) {
    on_interface(Interface::kInbound, at, packet);
  }

  /// Attaches `registry` (must outlive the agent): per-segment-kind
  /// classifier counters ("sniffer.out.*" / "sniffer.in.*") and the
  /// "syndog.*" instruments land there. Degradation instruments
  /// ("agent.*") are created lazily, only once a fault actually occurs.
  /// Per-period state is not a registry concern: it reaches consumers
  /// through the period callbacks below.
  void attach_observer(obs::Registry& registry);

  /// Replaces the degradation tunables (validated). Call before faults
  /// start; does not retroactively reinterpret past periods.
  void set_health_policy(AgentHealthPolicy policy);

  /// Invoked once per *fed* observation period, after the CUSUM update and
  /// any alarm callback, with the period's report, the agent's health as
  /// of the period end, and the scheduler clock. Discarded periods (blind
  /// or collapse-absorbed rollovers) do not fire it — they produce no
  /// report. This is the streaming seam the fleet telemetry wiring
  /// (core::FleetRecorder) and the mitigation controller
  /// (mitigate::MitigationController) hook.
  using PeriodCallback =
      std::function<void(const PeriodReport&, AgentHealth, util::SimTime)>;
  /// Appends a period callback; callbacks fire in registration order, so
  /// several consumers (telemetry + mitigation) can share one agent.
  void add_period_callback(PeriodCallback cb);

  /// Egress-policer correction. A mitigation policer sits *downstream*
  /// of the outbound tap (the sniffer must keep seeing the wire so a
  /// throttled flood still banks alarm evidence), which means a SYN the
  /// policer drops was counted but can never draw a SYN/ACK. For spoofed
  /// SYNs that is exactly right — the station emitted them and the alarm
  /// should persist. For *in-prefix* collateral drops it is false
  /// feedback: the detector would read its own throttle as attack
  /// evidence and hold the statistic up forever (a quarantined station's
  /// legitimate SYNs + retransmissions can exceed the decay drift at a
  /// small site). The controller reports those here; the next rollover
  /// (close_period, on either path) deducts them from the period's SYN
  /// count, after a late harvest's rescale.
  void discount_outbound_syns(std::int64_t n = 1) {
    policed_discount_ += n;
  }

  /// Tells the agent its sniffers are (not) seeing traffic — the DES
  /// analogue of a tap daemon heartbeat. While an outage is active every
  /// rollover is discarded as a gap (counters may hold partial garbage);
  /// when it clears, the agent re-arms through quarantine.
  void notify_sniffer_outage(bool active);

  /// Fault hook: delays the pending period rollover until `at` (no-op if
  /// `at` is not later), simulating a stalled/suspended agent process.
  /// The late rollover then triggers the gap-accounting path.
  // syndog-lint: allow-next-line(api.test_only) -- fault hook, the only way into the stall rescale; no DES run stalls
  void stall_until(util::SimTime at);

  /// Count-level rollover: closes the observation period ending at `at`
  /// from its SYN and SYN/ACK counts, `missed` being the rollovers a
  /// stalled timer skipped before it (0 when on time). Runs the health
  /// path — gap accounting, outage discard, SYN/ACK-collapse absorption —
  /// then the CUSUM update, quarantine, the alarm callback and the
  /// period callbacks; it leaves the period timer alone. The agent's
  /// timer calls it after harvesting the sniffers (and rescaling a late
  /// harvest to one period's worth); the sharded ingest merge calls it
  /// with counts summed across shards.
  void close_period(util::SimTime at, std::int64_t syns,
                    std::int64_t syn_acks, std::int64_t missed);

  [[nodiscard]] const SynDog& detector() const { return syndog_; }
  /// The sniffer counting the watched SYNs (on the outbound interface in
  /// first-mile mode, the inbound interface in last-mile mode).
  [[nodiscard]] const Sniffer& outbound_sniffer() const { return outbound_; }
  /// The sniffer counting the watched SYN/ACKs.
  [[nodiscard]] const Sniffer& inbound_sniffer() const { return inbound_; }
  [[nodiscard]] const SourceLocator& locator() const { return locator_; }
  /// Every period report produced so far (the {yn} trajectory).
  [[nodiscard]] const std::vector<PeriodReport>& history() const {
    return history_;
  }
  [[nodiscard]] bool ever_alarmed() const { return ever_alarmed_; }
  /// First period whose report alarmed, or -1.
  [[nodiscard]] std::int64_t first_alarm_period() const {
    return first_alarm_period_;
  }

  [[nodiscard]] AgentHealth health() const { return health_; }
  /// Rollovers discarded because the sniffers were known-dead.
  [[nodiscard]] std::int64_t blind_periods() const { return blind_periods_; }
  /// Alarming periods whose alarm was withheld during quarantine.
  [[nodiscard]] std::int64_t suppressed_alarm_periods() const {
    return suppressed_alarm_periods_;
  }
  /// Blind intervals survived (quarantined re-arms performed).
  [[nodiscard]] std::int64_t recoveries() const { return recoveries_; }
  /// Periods of quarantine still pending (0 when alarms are live).
  [[nodiscard]] std::int64_t quarantine_remaining() const {
    return quarantine_remaining_;
  }

 private:
  void on_interface(Interface side, util::SimTime at,
                    const net::Packet& packet);
  void on_period_end();
  void schedule_next_period();
  void transition(AgentHealth to);
  void begin_quarantine();
  void note_clean_period();
  [[nodiscard]] bool synack_collapsed(std::int64_t syns,
                                      std::int64_t syn_acks) const;

  sim::Scheduler& scheduler_;
  SynDogParams params_;
  AgentMode mode_;
  SynDog syndog_;
  Sniffer outbound_{SnifferRole::kOutbound};
  Sniffer inbound_{SnifferRole::kInbound};
  SourceLocator locator_;
  AlarmCallback on_alarm_;
  std::vector<PeriodCallback> on_period_;
  std::vector<PeriodReport> history_;
  bool ever_alarmed_ = false;
  std::int64_t first_alarm_period_ = -1;

  // Degradation layer.
  AgentHealthPolicy policy_;
  AgentHealth health_ = AgentHealth::kHealthy;
  sim::EventId period_timer_ = 0;
  util::SimTime last_rollover_;  ///< when the previous rollover ran
  bool outage_active_ = false;
  bool outage_touched_ = false;  ///< outage overlapped the current period
  std::int64_t consecutive_collapsed_ = 0;
  std::int64_t quarantine_remaining_ = 0;
  std::int64_t backoff_periods_ = 0;  ///< next quarantine length
  std::int64_t clean_streak_ = 0;
  std::int64_t blind_periods_ = 0;
  std::int64_t suppressed_alarm_periods_ = 0;
  std::int64_t policed_discount_ = 0;  ///< see discount_outbound_syns
  std::int64_t recoveries_ = 0;

  // Telemetry (optional; see attach_observer).
  obs::Registry* registry_ = nullptr;
  std::optional<classify::SegmentMetrics> outbound_metrics_;
  std::optional<classify::SegmentMetrics> inbound_metrics_;
};

}  // namespace syndog::core
