// Hash-based IP traceback — SPIE (Snoeren et al., "Hash-Based IP
// Traceback", SIGCOMM 2001; paper ref [27]).
//
// Every router keeps a Bloom-filter digest of every packet it forwards
// during a time window. Given one attack packet, the victim's query
// walks the topology away from itself: a router is on the packet's path
// if its digest table (probably) contains the packet. Single-packet
// traceback — but at the price of per-packet state at *every* router
// (the antithesis of SYN-dog's two counters at one router) and a false
// positive rate that grows as the filters fill.
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/traceback/topology.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::traceback {

/// Standard Bloom filter over 64-bit packet digests.
class BloomFilter {
 public:
  BloomFilter(std::size_t bits, int hash_count);

  void insert(std::uint64_t digest);
  [[nodiscard]] bool maybe_contains(std::uint64_t digest) const;
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }
  /// Fraction of bits set; drives the false-positive rate
  /// (~ fill^hash_count).
  [[nodiscard]] double fill_ratio() const;
  [[nodiscard]] double expected_false_positive_rate() const;
  void clear();

 private:
  [[nodiscard]] std::size_t bit_index(std::uint64_t digest, int round) const;

  std::vector<bool> bits_;
  int hash_count_;
  std::uint64_t inserted_ = 0;
};

/// The deployed system: one digest table per router in the topology.
class SpieSystem {
 public:
  struct Params {
    std::size_t bits_per_router = 1 << 18;
    int hash_count = 4;
  };

  SpieSystem(const AttackTopology& topology, Params params);

  /// Records a packet traveling from `leaf` to the victim (digested at
  /// every router on the path). Returns the digest for later queries.
  std::uint64_t forward_attack_packet(RouterId leaf, util::Rng& rng);
  /// Records unrelated cross traffic at one router (fills its filter).
  void forward_cross_traffic(RouterId router, std::uint64_t digest);

  /// Traceback query: routers whose digest tables contain the packet,
  /// discovered by walking from the victim outward (children checked
  /// only when their parent matched, as in SPIE). Returns victim-
  /// neighbor-first order; false positives may add spurious branches.
  [[nodiscard]] std::vector<RouterId> trace(std::uint64_t digest) const;

  [[nodiscard]] const BloomFilter& router_filter(RouterId id) const {
    return filters_.at(id);
  }
  /// Total digest-table memory across all routers, in bytes.
  [[nodiscard]] std::size_t total_state_bytes() const;

 private:
  const AttackTopology& topology_;
  Params params_;
  std::vector<BloomFilter> filters_;
  std::vector<std::vector<RouterId>> children_;  ///< reverse adjacency
  std::vector<RouterId> roots_;                  ///< victim's neighbors
};

}  // namespace syndog::traceback
