#include "syndog/traceback/ppm.hpp"

#include <cmath>
#include <stdexcept>

namespace syndog::traceback {

PpmMarker::PpmMarker(double marking_probability) : p_(marking_probability) {
  if (!(p_ > 0.0 && p_ < 1.0)) {
    throw std::invalid_argument("PpmMarker: probability in (0,1)");
  }
}

void PpmMarker::process(Mark& mark, RouterId router, util::Rng& rng) const {
  if (rng.bernoulli(p_)) {
    // Start a fresh edge sample at this router.
    mark.edge_start = router;
    mark.edge_end = kNoRouter;
    mark.distance = 0;
    return;
  }
  if (mark.valid()) {
    if (mark.distance == 0 && mark.edge_end == kNoRouter) {
      mark.edge_end = router;  // complete the edge started one hop back
    }
    ++mark.distance;
  }
}

void PpmCollector::observe(const Mark& mark) {
  if (!mark.valid()) return;
  // distance counts hops since the marking router; the edge (start,end)
  // lies distance-1 .. distance hops from the victim (end == kNoRouter
  // means the marking router is the victim's direct neighbor).
  edges_by_distance_[mark.distance].insert(
      Edge{mark.edge_start, mark.edge_end});
}

bool PpmCollector::covers_path(const std::vector<RouterId>& path) const {
  // The true path leaf-first is path[0] (farthest) ... path.back() (the
  // victim's neighbor). A packet marked at path[i] is completed by
  // path[i+1] and then travels the remaining hops, arriving with
  // distance n-1-i and edge (path[i], path[i+1]); a mark from the last
  // hop arrives with distance 0 and an unfinished edge.
  const std::size_t n = path.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = edges_by_distance_.find(static_cast<int>(n - 1 - i));
    if (it == edges_by_distance_.end()) return false;
    const RouterId start = path[i];
    const RouterId end = i + 1 < n ? path[i + 1] : kNoRouter;
    if (!it->second.contains(Edge{start, end})) return false;
  }
  return true;
}

double PpmCollector::expected_packets_bound(double p, int hops) {
  if (!(p > 0.0 && p < 1.0) || hops < 1) {
    throw std::invalid_argument("expected_packets_bound: bad arguments");
  }
  return std::log(static_cast<double>(hops)) /
         (p * std::pow(1.0 - p, hops - 1));
}

std::optional<std::uint64_t> packets_until_traced(
    const AttackTopology& topology, RouterId leaf, double marking_p,
    util::Rng& rng, std::uint64_t max_packets) {
  const std::vector<RouterId> path = topology.path_from(leaf);
  const PpmMarker marker(marking_p);
  PpmCollector collector;
  for (std::uint64_t sent = 1; sent <= max_packets; ++sent) {
    Mark mark;
    for (const RouterId hop : path) {
      marker.process(mark, hop, rng);
    }
    collector.observe(mark);
    // Covering checks are cheap only every so often on long runs.
    if (sent % 64 == 0 || sent < 64) {
      if (collector.covers_path(path)) return sent;
    }
  }
  return std::nullopt;
}

}  // namespace syndog::traceback
