// SYN-flood traffic generation.
//
// Models the flooding behaviour of the DDoS tools the paper surveys (TFN,
// TFN2K, Trinity, Plague, Shaft): a slave continuously emits spoofed SYNs
// toward the victim. The paper argues detection sensitivity depends only
// on total flood volume, not the emission pattern; the shapes below let
// the ablation bench verify that.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::attack {

enum class FloodShape : std::uint8_t {
  kConstant,  ///< Poisson emission at a fixed mean rate
  kOnOff,     ///< square-wave bursts: full rate while ON, silent while OFF
  kRamp,      ///< rate grows linearly from 0 to 2x the mean over the flood
};

[[nodiscard]] std::string_view to_string(FloodShape shape);

struct FloodSpec {
  /// Mean SYN rate seen by the outbound sniffer, f_i (SYN/s). The paper's
  /// evaluation sweeps exactly this.
  double rate = 45.0;
  util::SimTime start = util::SimTime::minutes(5);
  util::SimTime duration = util::SimTime::minutes(10);  ///< paper: 10 min
  FloodShape shape = FloodShape::kConstant;
  /// ON/OFF shape: burst period and duty cycle; the ON-rate is scaled to
  /// rate/duty so the mean stays `rate`.
  util::SimTime on_off_period = util::SimTime::seconds(10);
  double duty_cycle = 0.5;

  void validate() const;
};

/// Emission times of every flood SYN, ascending, within
/// [start, start+duration).
[[nodiscard]] std::vector<util::SimTime> generate_flood_times(
    const FloodSpec& spec, util::Rng& rng);

}  // namespace syndog::attack
