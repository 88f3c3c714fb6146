// Probabilistic packet marking (Savage, Wetherall, Karlin, Anderson —
// "Practical Network Support for IP Traceback", SIGCOMM 2000; paper
// ref [23]), edge-sampling variant.
//
// Every router, with probability p, overwrites the packet's mark with
// itself and distance 0; a router seeing distance 0 completes the edge;
// everyone else increments the distance. The victim reconstructs the
// attack path from collected (edge, distance) samples — after enough
// packets: the classic bound is E[packets] <= ln(d) / (p * (1-p)^(d-1))
// for a path of d hops. That "enough packets" (thousands, and only
// *during* the attack) is precisely the cost SYN-dog's source-side
// deployment avoids.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "syndog/traceback/topology.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::traceback {

/// The marking fields a router scribbles into (in reality squeezed into
/// the IP identification field; modeled here as a struct).
struct Mark {
  RouterId edge_start = kNoRouter;
  RouterId edge_end = kNoRouter;  ///< kNoRouter while the edge is half-built
  int distance = 0;
  [[nodiscard]] bool valid() const { return edge_start != kNoRouter; }
};

/// Per-router edge-sampling step.
class PpmMarker {
 public:
  explicit PpmMarker(double marking_probability);

  /// Applies router `router`'s marking decision to the packet's mark.
  void process(Mark& mark, RouterId router, util::Rng& rng) const;

 private:
  double p_;
};

/// Victim-side collection of the marked edges.
class PpmCollector {
 public:
  /// Records the mark of one received attack packet (unmarked packets
  /// contribute nothing).
  void observe(const Mark& mark);

  /// True when the collected edges contain every edge of `path`
  /// (leaf-first router list, as AttackTopology::path_from returns).
  [[nodiscard]] bool covers_path(const std::vector<RouterId>& path) const;

  /// Savage et al.'s expected-packet bound for full reconstruction of a
  /// d-hop path with marking probability p.
  [[nodiscard]] static double expected_packets_bound(double p, int hops);

 private:
  struct Edge {
    RouterId start;
    RouterId end;
    auto operator<=>(const Edge&) const = default;
  };
  std::map<int, std::set<Edge>> edges_by_distance_;
};

/// Runs the full loop: attack packets flow from `leaf` to the victim
/// through `topology` with per-router marking, until the collector can
/// cover the true path (or `max_packets` is hit). Returns the number of
/// packets the victim needed, or nullopt on budget exhaustion.
[[nodiscard]] std::optional<std::uint64_t> packets_until_traced(
    const AttackTopology& topology, RouterId leaf, double marking_p,
    util::Rng& rng, std::uint64_t max_packets = 2'000'000);

}  // namespace syndog::traceback
