// Fleet telemetry wiring: SYN-dog stubs → telemetry::TelemetrySink.
//
// One FleetRecorder fans a whole fleet of detectors into a single
// syndog-tsf/1 stream under the standard fleet schema (the kFleetMetric*
// names below — syndog_fleetctl's rollups query the same names). Two ways
// to feed it:
//
//   * fast-forward: add_agent() owns a bare core::SynDog per slot and
//     observe() feeds per-period counters directly — no DES, which is how
//     bench_fleet_telemetry reaches hundreds of agents × days of sim time
//     inside a minute of wall clock;
//   * live DES: attach() hooks a SynDogAgent's period callback, so a
//     scheduler-driven run streams the identical schema.
//
// Sampling cadence is configurable: alarm and health samples are always
// pushed on state *changes* (so edges are exact), while the per-period
// {syn, syn_ack, k, y} samples can be decimated to every Nth period to
// keep multi-day campaign files compact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "syndog/core/agent.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/telemetry/sink.hpp"
#include "syndog/util/time.hpp"

namespace syndog::core {

/// The standard fleet telemetry schema (metric names in the tsf
/// dictionary). docs/OBSERVABILITY.md §Fleet telemetry documents each.
inline constexpr std::string_view kFleetMetricSyn = "syn";
inline constexpr std::string_view kFleetMetricSynAck = "syn_ack";
inline constexpr std::string_view kFleetMetricK = "k";
inline constexpr std::string_view kFleetMetricY = "y";
inline constexpr std::string_view kFleetMetricAlarm = "alarm";
inline constexpr std::string_view kFleetMetricHealth = "health";
/// Aggregate mitigation stage of a stub (mitigate::Stage as 0/1/2), read
/// by telemetry::stage_timeline. Only syndog_fleetctl's demo writes it.
inline constexpr std::string_view kFleetMetricMitigation = "mitigation";

class FleetRecorder {
 public:
  struct Cadence {
    /// Push {syn, syn_ack, k, y} every Nth fed period (1 = every period).
    /// Alarm/health changes are always pushed regardless.
    std::int64_t heartbeat_periods = 1;
  };

  /// The sink must outlive the recorder; the recorder must outlive any
  /// agent attached via attach() (the period callback points back here).
  explicit FleetRecorder(telemetry::TelemetrySink& sink);
  FleetRecorder(telemetry::TelemetrySink& sink, Cadence cadence);

  /// Fast-forward slot: owns a SynDog configured with `params`.
  std::size_t add_agent(std::string_view name, std::uint32_t as_number,
                        const SynDogParams& params);

  /// Feeds one period's counters to slot `slot` and records the derived
  /// samples timestamped `at`. Only valid for add_agent() slots.
  PeriodReport observe(std::size_t slot, std::int64_t syn,
                       std::int64_t syn_ack, util::SimTime at);

  /// Live-DES slot: registers the agent and appends to its period
  /// callbacks (other consumers, e.g. a mitigation controller, keep
  /// theirs).
  std::size_t attach(SynDogAgent& agent, std::string_view name,
                     std::uint32_t as_number);

  [[nodiscard]] std::size_t agent_count() const { return slots_.size(); }
  /// The fast-forward detector behind slot `slot` (throws for attach()
  /// slots, which keep their state inside the SynDogAgent).
  [[nodiscard]] const SynDog& detector(std::size_t slot) const;
  [[nodiscard]] telemetry::TelemetrySink& sink() { return sink_; }

 private:
  struct Slot {
    std::unique_ptr<SynDog> dog;  ///< null for attach() slots
    std::uint32_t s_syn = 0;
    std::uint32_t s_syn_ack = 0;
    std::uint32_t s_k = 0;
    std::uint32_t s_y = 0;
    std::uint32_t s_alarm = 0;
    std::uint32_t s_health = 0;
    bool alarm_state = false;
    double health_state = 0.0;
    std::int64_t fed_periods = 0;
  };

  std::size_t new_slot(std::string_view name, std::uint32_t as_number,
                       std::unique_ptr<SynDog> dog);
  void record(Slot& slot, const PeriodReport& report, double health,
              util::SimTime at);

  telemetry::TelemetrySink& sink_;
  Cadence cadence_;
  std::vector<Slot> slots_;
};

}  // namespace syndog::core
