#include <gtest/gtest.h>

#include <algorithm>

#include "syndog/traceback/ppm.hpp"
#include "syndog/traceback/spie.hpp"
#include "syndog/traceback/topology.hpp"

namespace syndog::traceback {
namespace {

// --- topology ----------------------------------------------------------------

TEST(TopologyTest, ChainShape) {
  const AttackTopology topo = AttackTopology::chain(8);
  EXPECT_EQ(topo.router_count(), 8u);
  ASSERT_EQ(topo.attacker_leaves().size(), 1u);
  const auto path = topo.path_from(topo.attacker_leaves()[0]);
  EXPECT_EQ(path.size(), 8u);
  // Leaf-first order ends at the victim-adjacent router (id 0).
  EXPECT_EQ(path.back(), 0u);
  EXPECT_EQ(topo.router(path.back()).next_hop, kNoRouter);
  EXPECT_EQ(topo.max_depth(), 8);
  EXPECT_THROW((void)AttackTopology::chain(0), std::invalid_argument);
}

TEST(TopologyTest, RandomTreeInvariants) {
  util::Rng rng(7);
  const AttackTopology topo = AttackTopology::random(20, 5, 15, rng);
  EXPECT_EQ(topo.attacker_leaves().size(), 20u);
  for (const RouterId leaf : topo.attacker_leaves()) {
    const auto path = topo.path_from(leaf);
    EXPECT_GE(path.size(), 2u);
    EXPECT_LE(static_cast<int>(path.size()), topo.max_depth());
    // Distances decrease by exactly one along the path.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_EQ(topo.router(path[i]).distance_to_victim,
                topo.router(path[i + 1]).distance_to_victim + 1);
    }
    EXPECT_EQ(topo.router(path.back()).distance_to_victim, 1);
  }
}

// --- PPM ----------------------------------------------------------------------

TEST(PpmTest, MarkedPacketCarriesConsistentEdge) {
  const AttackTopology topo = AttackTopology::chain(10);
  const auto path = topo.path_from(topo.attacker_leaves()[0]);
  const PpmMarker marker(0.2);
  util::Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    Mark mark;
    for (const RouterId hop : path) marker.process(mark, hop, rng);
    if (!mark.valid()) continue;
    // distance identifies the marking router's position from the end.
    ASSERT_LT(mark.distance, static_cast<int>(path.size()));
    const std::size_t idx = path.size() - 1 - mark.distance;
    EXPECT_EQ(mark.edge_start, path[idx]);
    if (idx + 1 < path.size()) {
      EXPECT_EQ(mark.edge_end, path[idx + 1]);
    } else {
      EXPECT_EQ(mark.edge_end, kNoRouter);
    }
  }
}

TEST(PpmTest, PacketsNeededNearTheoreticalBound) {
  // E[X] <= ln(d)/(p(1-p)^(d-1)); measure the mean over a few runs and
  // require the right order of magnitude.
  const AttackTopology topo = AttackTopology::chain(15);
  const double p = 0.04;  // Savage's recommended ~1/25
  double total = 0.0;
  const int runs = 10;
  for (int r = 0; r < runs; ++r) {
    util::Rng rng(100 + r);
    const auto packets =
        packets_until_traced(topo, topo.attacker_leaves()[0], p, rng);
    ASSERT_TRUE(packets.has_value());
    total += static_cast<double>(*packets);
  }
  const double mean = total / runs;
  const double bound = PpmCollector::expected_packets_bound(p, 15);
  EXPECT_GT(mean, bound / 10.0);
  EXPECT_LT(mean, bound * 3.0);
  // Even the idealized full-edge variant needs on the order of a hundred
  // received attack packets; the deployable fragment-encoded variant
  // multiplies this by orders of magnitude.
  EXPECT_GT(mean, 50.0);
}

TEST(PpmTest, Validation) {
  EXPECT_THROW(PpmMarker(0.0), std::invalid_argument);
  EXPECT_THROW(PpmMarker(1.0), std::invalid_argument);
  EXPECT_THROW((void)PpmCollector::expected_packets_bound(0.5, 0),
               std::invalid_argument);
}

// --- Bloom filter / SPIE ----------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1 << 14, 4);
  util::Rng rng(9);
  std::vector<std::uint64_t> inserted;
  for (int i = 0; i < 1000; ++i) {
    inserted.push_back(rng.next_u64());
    filter.insert(inserted.back());
  }
  for (const std::uint64_t d : inserted) {
    EXPECT_TRUE(filter.maybe_contains(d));
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearTheory) {
  BloomFilter filter(1 << 14, 4);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) filter.insert(rng.next_u64());
  const double predicted = filter.expected_false_positive_rate();
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    false_positives += filter.maybe_contains(rng.next_u64()) ? 1 : 0;
  }
  const double measured = static_cast<double>(false_positives) / probes;
  EXPECT_NEAR(measured, predicted, std::max(0.01, predicted));
  EXPECT_LT(measured, 0.05);
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter filter(1024, 3);
  filter.insert(42);
  EXPECT_TRUE(filter.maybe_contains(42));
  filter.clear();
  EXPECT_FALSE(filter.maybe_contains(42));
  EXPECT_EQ(filter.inserted(), 0u);
  EXPECT_EQ(filter.fill_ratio(), 0.0);
}

TEST(SpieTest, TracesSinglePacketExactly) {
  util::Rng topo_rng(13);
  const AttackTopology topo = AttackTopology::random(6, 4, 10, topo_rng);
  SpieSystem spie(topo, SpieSystem::Params{});
  util::Rng rng(17);
  const RouterId leaf = topo.attacker_leaves()[2];
  const std::uint64_t digest = spie.forward_attack_packet(leaf, rng);

  std::vector<RouterId> traced = spie.trace(digest);
  std::vector<RouterId> expected = topo.path_from(leaf);
  std::sort(traced.begin(), traced.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(traced, expected);  // empty filters: no false positives
}

TEST(SpieTest, CrossTrafficCausesFalsePositiveBranches) {
  const AttackTopology topo = AttackTopology::chain(6);
  SpieSystem::Params params;
  params.bits_per_router = 1 << 10;  // deliberately small tables
  SpieSystem spie(topo, params);
  util::Rng rng(19);
  const std::uint64_t digest =
      spie.forward_attack_packet(topo.attacker_leaves()[0], rng);
  // Saturate every router with unrelated traffic.
  for (RouterId id = 0; id < topo.router_count(); ++id) {
    for (int i = 0; i < 2000; ++i) {
      spie.forward_cross_traffic(id, rng.next_u64());
    }
    EXPECT_GT(spie.router_filter(id).fill_ratio(), 0.9);
  }
  // The true path is still found (no false negatives) but query quality
  // has collapsed — and a *fresh* digest that never crossed the network
  // now traces to garbage.
  const std::vector<RouterId> traced = spie.trace(digest);
  EXPECT_GE(traced.size(), topo.router_count());
  EXPECT_FALSE(spie.trace(rng.next_u64()).empty());
}

TEST(SpieTest, StateCostScalesWithRouters) {
  util::Rng rng(23);
  const AttackTopology topo = AttackTopology::random(10, 5, 12, rng);
  SpieSystem::Params params;
  params.bits_per_router = 1 << 18;
  const SpieSystem spie(topo, params);
  EXPECT_EQ(spie.total_state_bytes(),
            topo.router_count() * ((1u << 18) / 8));
}

}  // namespace
}  // namespace syndog::traceback
