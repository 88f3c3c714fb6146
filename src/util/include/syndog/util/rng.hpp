// Deterministic random number generation for simulations.
//
// Every stochastic component takes an explicit `Rng&`; nothing reads global
// entropy. Trials derive independent child streams from a master seed via
// SplitMix64 so experiments are reproducible and trials are decorrelated.
#pragma once

#include <cstdint>
#include <random>

namespace syndog::util {

/// Stateless SplitMix64 step, used for seed derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Wrapper around mt19937_64 with the distribution helpers the trace and
/// attack models need. Distribution parameters are validated by the standard
/// library; helpers that add parameters of our own document their domain.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)) {}

  /// Derives the `index`-th independent child stream of this generator's
  /// seed lineage. Children of distinct indices do not overlap in practice.
  [[nodiscard]] static Rng child(std::uint64_t seed, std::uint64_t index) {
    return Rng{splitmix64(seed ^ splitmix64(index + 1))};
  }


  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }
  /// Exponential with the given mean (not rate); mean must be > 0.
  [[nodiscard]] double exponential_mean(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  [[nodiscard]] std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>{mean}(engine_);
  }
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }
  /// Weibull with shape k > 0 and scale lambda > 0.
  [[nodiscard]] double weibull(double shape, double scale) {
    return std::weibull_distribution<double>{shape, scale}(engine_);
  }
  /// Pareto (type I): support [xm, inf), shape alpha > 0. Heavy-tailed for
  /// alpha <= 2; the self-similar arrival model uses alpha in (1, 2).
  [[nodiscard]] double pareto(double alpha, double xm);
  /// Random 32-bit value (e.g. spoofed IPv4 addresses).
  [[nodiscard]] std::uint32_t next_u32() {
    return static_cast<std::uint32_t>(engine_());
  }
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace syndog::util
