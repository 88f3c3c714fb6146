// Simulation time types.
//
// All simulator and detector code measures time as a signed 64-bit count of
// nanoseconds (`SimTime`). Integer time keeps event ordering exact and
// reproducible across platforms; doubles are only used at the presentation
// boundary (seconds for humans, per Eq. (8) of the paper).
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <string>

namespace syndog::util {

/// A point in simulated time, in nanoseconds since the start of the run.
/// Also used for durations; the arithmetic is the same and the simulator
/// never mixes simulated time with wall-clock time.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{INT64_MAX};
  }
  [[nodiscard]] static constexpr SimTime nanoseconds(std::int64_t v) {
    return SimTime{v};
  }
  [[nodiscard]] static constexpr SimTime microseconds(std::int64_t v) {
    return SimTime{v * 1'000};
  }
  [[nodiscard]] static constexpr SimTime milliseconds(std::int64_t v) {
    return SimTime{v * 1'000'000};
  }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t v) {
    return SimTime{v * 1'000'000'000};
  }
  [[nodiscard]] static constexpr SimTime minutes(std::int64_t v) {
    return seconds(v * 60);
  }
  [[nodiscard]] static constexpr SimTime hours(std::int64_t v) {
    return minutes(v * 60);
  }
  /// Converts a floating-point second count; fractional nanoseconds are
  /// rounded to nearest.
  [[nodiscard]] static SimTime from_seconds(double s);

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const {
    return static_cast<double>(ns_) / 1e9;
  }
  [[nodiscard]] constexpr double to_minutes() const {
    return to_seconds() / 60.0;
  }

  /// "h:mm:ss.mmm" rendering for logs and bench output.
  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime rhs) {
    ns_ += rhs.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime rhs) {
    ns_ -= rhs.ns_;
    return *this;
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.ns_ + b.ns_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.ns_ - b.ns_};
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) {
    return SimTime{a.ns_ * k};
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) {
    return a * k;
  }
  /// Integer division: how many whole `b` intervals fit in `a`.
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) {
    return a.ns_ / b.ns_;
  }
  friend SimTime operator*(SimTime a, double k) {
    return SimTime::from_seconds(a.to_seconds() * k);
  }

 private:
  std::int64_t ns_ = 0;
};

}  // namespace syndog::util
