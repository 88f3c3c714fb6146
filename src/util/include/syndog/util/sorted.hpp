// Deterministic views over unordered associative containers.
//
// std::unordered_{map,set} iteration order is a function of the standard
// library, the insertion history, and the hash seed — never of the keys.
// Any loop over one that feeds ordered output (obs exporters, bench
// sidecars, CSV writers) therefore breaks the repo's byte-identical
// sidecar contract; `syndog_lint --explain determinism.unordered_iteration`
// has the full story. These adapters give a key-ordered view at snapshot
// cost, paid only where snapshots are taken: the hot path keeps O(1)
// hashed lookups, the export path iterates deterministically.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

namespace syndog::util {

/// Key-ordered view of a map: pointers to the map's entries, sorted by
/// key. Pointers (not copies) keep mapped values reachable — and, via the
/// mutable overload, modifiable — without copying them; the view is
/// invalidated by any rehash of the underlying container.
template <typename Map, typename Compare = std::less<typename Map::key_type>>
// syndog-lint: allow-next-line(api.test_only) -- the ordered view determinism.unordered_iteration prescribes
[[nodiscard]] std::vector<const typename Map::value_type*> sorted_items(
    const Map& map, Compare cmp = Compare{}) {
  std::vector<const typename Map::value_type*> view;
  view.reserve(map.size());
  for (const auto& item : map) view.push_back(&item);
  std::sort(view.begin(), view.end(),
            [&cmp](const auto* a, const auto* b) {
              return cmp(a->first, b->first);
            });
  return view;
}

template <typename Map, typename Compare = std::less<typename Map::key_type>>
[[nodiscard]] std::vector<typename Map::value_type*> sorted_items(
    Map& map, Compare cmp = Compare{}) {
  std::vector<typename Map::value_type*> view;
  view.reserve(map.size());
  for (auto& item : map) view.push_back(&item);
  std::sort(view.begin(), view.end(),
            [&cmp](const auto* a, const auto* b) {
              return cmp(a->first, b->first);
            });
  return view;
}

/// Sorted copy of a set's keys (keys are value types small enough to copy
/// wherever this matters: addresses, ports, ids).
template <typename Set, typename Compare = std::less<typename Set::key_type>>
// syndog-lint: allow-next-line(api.test_only) -- the ordered view determinism.unordered_iteration prescribes
[[nodiscard]] std::vector<typename Set::key_type> sorted_keys(
    const Set& set, Compare cmp = Compare{}) {
  std::vector<typename Set::key_type> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end(), cmp);
  return keys;
}

}  // namespace syndog::util
