// Scheduler hot-path stress tests.
//
// Three properties the allocation-free scheduler must hold:
//  1. Behavioral equivalence: randomized schedule/cancel/run_until
//     interleavings match a naive sorted-vector reference model,
//     including the run_until boundary semantics and the (time, schedule
//     order) tie-break the deterministic sidecars depend on.
//  2. Structural soundness of the slot arena: generation-tagged ids make
//     cancels of executed/stale ids no-ops, slots recycle safely.
//  3. Zero heap allocations per event in steady state, proven with
//     testsupport::AllocGuard (tests/support/alloc_guard.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "support/alloc_guard.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/packet_pool.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/inline_callback.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {
namespace {

using util::SimTime;

// --- InlineCallback ---------------------------------------------------------

TEST(InlineCallbackTest, InvokesAndMovesWithoutAllocating) {
  int hits = 0;
  util::InlineCallback<64> cb = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(hits, 1);

  util::InlineCallback<64> moved = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 2);

  moved.reset();
  EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(InlineCallbackTest, AcceptsMoveOnlyCaptures) {
  // std::function cannot hold this lambda; InlineCallback must.
  auto ptr = std::make_unique<int>(41);
  util::InlineCallback<64> cb = [p = std::move(ptr)] { ++*p; };
  cb();
  cb();
}

TEST(InlineCallbackTest, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> n;
    explicit Probe(std::shared_ptr<int> n) : n(std::move(n)) {}
    Probe(Probe&&) noexcept = default;
    Probe(const Probe&) = delete;
    ~Probe() {
      if (n) ++*n;
    }
    void operator()() const {}
  };
  {
    util::InlineCallback<64> cb = Probe{counter};
    util::InlineCallback<64> other = std::move(cb);
    other();
  }
  // Exactly one live Probe existed at a time; one destruction with state.
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1);
}

// --- PacketPool -------------------------------------------------------------

TEST(PacketPoolTest, RecyclesSlotsThroughHandles) {
  PacketPool pool;
  {
    auto a = pool.acquire(net::Packet{});
    auto b = pool.acquire(net::Packet{});
    EXPECT_EQ(pool.in_use(), 2u);
    EXPECT_EQ(pool.capacity(), 2u);
  }
  EXPECT_EQ(pool.in_use(), 0u);
  // Released slots are reused; the pool does not grow.
  auto c = pool.acquire(net::Packet{});
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.capacity(), 2u);
}

TEST(PacketPoolTest, HandleMoveTransfersOwnership) {
  PacketPool pool;
  net::Packet p;
  p.ip.ttl = 42;
  auto a = pool.acquire(p);
  auto b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b->ip.ttl, 42);
  EXPECT_EQ(pool.in_use(), 1u);
  b = PacketPool::Handle{};
  EXPECT_EQ(pool.in_use(), 0u);
}

// --- Randomized cross-check against a reference model -----------------------

TEST(SchedulerStressTest, RandomizedOpsMatchReferenceModel) {
  util::Rng rng(0x5ced5eed);
  Scheduler sched;

  // Reference model: the queue as a flat list of entries carrying the
  // schedule-order stamp. cancel removes entries eagerly (the scheduler
  // keeps no tombstones), so run_until's time bound is exact.
  struct RefEntry {
    SimTime at;
    std::uint64_t seq;
    int tag;
  };
  std::vector<RefEntry> ref;
  std::vector<int> actual;
  std::vector<int> expected;
  std::vector<std::pair<EventId, int>> issued;  // every id ever returned
  std::uint64_t seq = 0;
  int next_tag = 0;

  const auto min_entry = [&ref] {
    return std::min_element(ref.begin(), ref.end(),
                            [](const RefEntry& a, const RefEntry& b) {
                              if (a.at != b.at) return a.at < b.at;
                              return a.seq < b.seq;
                            });
  };
  const auto ref_run_until = [&](SimTime end) {
    for (;;) {
      const auto it = min_entry();
      if (it == ref.end() || it->at > end) return;
      expected.push_back(it->tag);
      ref.erase(it);
    }
  };
  const auto ref_pending = [&ref] { return ref.size(); };

  for (int round = 0; round < 4000; ++round) {
    const auto op = rng.uniform_int(0, 9);
    if (op < 6) {
      const SimTime at =
          sched.now() + SimTime::microseconds(rng.uniform_int(0, 40));
      const int tag = next_tag++;
      const EventId id =
          sched.schedule_at(at, [tag, &actual] { actual.push_back(tag); });
      ref.push_back(RefEntry{at, seq++, tag});
      issued.emplace_back(id, tag);
    } else if (op < 8) {
      if (issued.empty()) continue;
      // Cancel a random id from the full history: pending, executed,
      // doubly-cancelled, or stale ids pointing at recycled slots.
      const auto& [id, tag] = issued[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
      sched.cancel(id);
      std::erase_if(ref, [tag](const RefEntry& e) { return e.tag == tag; });
    } else {
      const SimTime end =
          sched.now() + SimTime::microseconds(rng.uniform_int(0, 60));
      sched.run_until(end);
      ref_run_until(end);
      ASSERT_EQ(actual, expected) << "diverged at round " << round;
      ASSERT_EQ(sched.pending(), ref_pending()) << "round " << round;
    }
  }
  sched.run_all();
  ref_run_until(SimTime::hours(24 * 365));
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(ref_pending(), 0u);
}

// --- Tie-break determinism ---------------------------------------------------

TEST(SchedulerStressTest, TieBreakOrderIsScheduleOrder) {
  util::Rng rng(0xace0fba5e);
  Scheduler sched;
  std::vector<int> actual;
  struct Expected {
    SimTime at;
    int idx;
  };
  std::vector<Expected> expected;
  // Times drawn from a tiny set so nearly every event ties with others;
  // the contract is stable (time, schedule order) — exactly the order
  // the pre-arena scheduler produced, which the deterministic BENCH
  // sidecars are pinned to.
  for (int i = 0; i < 2000; ++i) {
    const SimTime at = SimTime::milliseconds(rng.uniform_int(0, 7));
    sched.schedule_at(at, [i, &actual] { actual.push_back(i); });
    expected.push_back(Expected{at, i});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.at < b.at;
                   });
  sched.run_all();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i].idx) << "position " << i;
  }
}

// --- Zero allocations in steady state ----------------------------------------

TEST(SchedulerStressTest, SteadyStateEventLoopDoesNotAllocate) {
  Scheduler sched;

  // Self-sustaining churn: each event reschedules itself and also
  // schedules-then-cancels a decoy, exercising the schedule, eager
  // heap-removal, and pop paths every iteration.
  struct Churn {
    Scheduler* sched;
    void operator()() const {
      const EventId decoy = sched->schedule_after(
          SimTime::microseconds(2), [] {});
      sched->cancel(decoy);
      sched->schedule_after(SimTime::microseconds(1), Churn{sched});
    }
  };
  for (int i = 0; i < 64; ++i) {
    sched.schedule_after(SimTime::microseconds(i + 1), Churn{&sched});
  }

  // Packet ping through a Link: every delivery re-sends the packet, so
  // pool slots are acquired and released continuously.
  struct Pinger {
    Link* link = nullptr;
    void operator()(const net::Packet& pkt) const { link->send(pkt); }
  };
  auto pinger = std::make_unique<Pinger>();
  Link link(sched, SimTime::microseconds(50),
            [p = pinger.get()](const net::Packet& pkt) { (*p)(pkt); });
  pinger->link = &link;
  net::Packet seedpkt;
  seedpkt.ip.ttl = 7;
  for (int i = 0; i < 16; ++i) link.send(seedpkt);

  // Warm-up: grow the slot arena, heap, freelists, and packet pool to
  // their steady-state footprint.
  sched.run_all(200000);

  testsupport::AllocGuard guard;
  sched.run_all(500000);

  EXPECT_EQ(guard.stop(), 0u)
      << "steady-state event loop must not touch the heap";
  EXPECT_GT(link.delivered(), 2000u);  // the ping ran through both phases
}

}  // namespace
}  // namespace syndog::sim
