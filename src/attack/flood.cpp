#include "syndog/attack/flood.hpp"

#include <cmath>
#include <stdexcept>

namespace syndog::attack {

std::string_view to_string(FloodShape shape) {
  switch (shape) {
    case FloodShape::kConstant:
      return "constant";
    case FloodShape::kOnOff:
      return "on-off";
    case FloodShape::kRamp:
      return "ramp";
  }
  return "?";
}

void FloodSpec::validate() const {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("FloodSpec: rate must be positive");
  }
  if (start < util::SimTime::zero() || duration <= util::SimTime::zero()) {
    throw std::invalid_argument("FloodSpec: bad start/duration");
  }
  if (shape == FloodShape::kOnOff) {
    if (on_off_period <= util::SimTime::zero() ||
        !(duty_cycle > 0.0 && duty_cycle <= 1.0)) {
      throw std::invalid_argument("FloodSpec: bad on/off parameters");
    }
  }
}

std::vector<util::SimTime> generate_flood_times(const FloodSpec& spec,
                                                util::Rng& rng) {
  spec.validate();
  std::vector<util::SimTime> out;
  const double start = spec.start.to_seconds();
  const double end = start + spec.duration.to_seconds();
  out.reserve(static_cast<std::size_t>(spec.rate *
                                       spec.duration.to_seconds() * 1.1) +
              16);

  switch (spec.shape) {
    case FloodShape::kConstant: {
      double t = start;
      while (true) {
        t += rng.exponential_mean(1.0 / spec.rate);
        if (t >= end) break;
        out.push_back(util::SimTime::from_seconds(t));
      }
      break;
    }
    case FloodShape::kOnOff: {
      const double period = spec.on_off_period.to_seconds();
      const double on_len = period * spec.duty_cycle;
      const double on_rate = spec.rate / spec.duty_cycle;
      for (double cycle = start; cycle < end; cycle += period) {
        const double on_end = std::min(end, cycle + on_len);
        double t = cycle;
        while (true) {
          t += rng.exponential_mean(1.0 / on_rate);
          if (t >= on_end) break;
          out.push_back(util::SimTime::from_seconds(t));
        }
      }
      break;
    }
    case FloodShape::kRamp: {
      // Rate lambda(t) = 2*rate*(t-start)/duration; generate by thinning
      // against the peak rate 2*rate.
      const double peak = 2.0 * spec.rate;
      const double dur = spec.duration.to_seconds();
      double t = start;
      while (true) {
        t += rng.exponential_mean(1.0 / peak);
        if (t >= end) break;
        const double accept = (t - start) / dur;
        if (rng.uniform() < accept) {
          out.push_back(util::SimTime::from_seconds(t));
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace syndog::attack
