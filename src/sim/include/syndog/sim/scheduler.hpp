// Discrete-event scheduler.
//
// Events live in a slab arena of reusable slots; the run queue is an
// indexed, vector-backed 4-ary min-heap of 16-byte {time, seq|slot}
// entries. Ties are broken by schedule order (a monotonic sequence
// number) so runs are fully deterministic — the exact order the old
// binary-heap/lazy-cancel design produced, preserved bit-for-bit.
//
// A generator that would otherwise schedule n events at once (a flood)
// reserves their n stamps up front with reserve() and keeps one pending
// at a time through schedule_reserved(): each fires under the stamp it
// would have had, so the run is the same as if all n had been pending
// from the start. schedule_at() is reserve(1) plus that insert.
//
// EventIds encode {slot index, generation}; cancel() checks the slot's
// current generation and, on a match, destroys the callback, bumps the
// generation, and removes the heap entry through the slot's tracked
// heap position — no side table, no stale entries accumulating in the
// queue. Cancelling an already-run, stale, or unknown id is a
// structurally harmless no-op (the generation no longer matches).
//
// The hot path performs zero heap allocations in steady state: callbacks
// are util::InlineCallback (in-slot storage, compile-time capture-size
// cap) and slots/heap entries are recycled. In-flight packets ride in
// the scheduler-owned PacketPool — callbacks capture a pool Handle, not
// a net::Packet.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/obs/metrics.hpp"
#include "syndog/sim/packet_pool.hpp"
#include "syndog/util/inline_callback.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

using EventId = std::uint64_t;

/// Inline budget for event callbacks. The largest captures in the tree
/// are a few words (an object pointer, indices, addresses and ports);
/// packets themselves must go through the PacketPool, not the capture.
inline constexpr std::size_t kSchedulerCallbackCapacity = 64;

class Scheduler {
 public:
  using Callback = util::InlineCallback<kSchedulerCallbackCapacity>;

  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Pool for in-flight packet payloads. Owned by the scheduler so that
  /// pool handles captured in pending callbacks can never outlive it.
  [[nodiscard]] PacketPool& packets() { return packets_; }

  /// Schedules `fn` at absolute time `at` (must be >= now). Returns an id
  /// usable with cancel().
  EventId schedule_at(util::SimTime at, Callback fn);
  EventId schedule_after(util::SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Hands out the next `n` schedule-order stamps and returns the first
  /// (stamps first .. first + n - 1). Throws std::overflow_error when the
  /// scheduler's lifetime supply of 2^40 stamps would run out.
  [[nodiscard]] std::uint64_t reserve(std::uint64_t n);  // syndog-lint: allow(hotpath.allocation) -- hands out stamps; no container grows
  /// schedule_at() under a stamp from an earlier reserve(): among events
  /// at the same time, `fn` runs as if it had been scheduled when the
  /// stamp was reserved. Each stamp is for one event. Throws
  /// std::invalid_argument for a stamp reserve() has not handed out.
  EventId schedule_reserved(util::SimTime at, std::uint64_t stamp,
                            Callback fn);

  /// Cancels a pending event, removing its queue entry immediately
  /// (O(log n), no search, no lingering tombstone); cancelling an
  /// already-run, stale, or unknown id is a harmless no-op.
  void cancel(EventId id);

  /// Runs the next pending event; returns false when the queue is empty.
  bool step();
  /// Runs events with time <= end; advances now() to end. Returns the
  /// number of events executed.
  std::size_t run_until(util::SimTime end);
  /// Drains the queue (bounded by `max_events` as a runaway guard).
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Attaches `registry` (must outlive the scheduler; pass nullptr to
  /// detach), which gains the "sim.events_executed" /
  /// "sim.events_scheduled" / "sim.events_cancelled" counters and the
  /// "sim.queue_depth" gauge.
  void attach_observer(obs::Registry* registry);

 private:
  /// One arena slot. `gen` tags the slot's current incarnation: bumped on
  /// cancel and on execute, so any EventId minted for a previous
  /// incarnation goes stale. `armed` distinguishes a scheduled slot from
  /// a free one (a forged id can't release a free slot twice).
  /// `heap_pos` is the slot's current index in heap_, maintained by every
  /// sift so cancel() can remove the entry without a search.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = 0;
    bool armed = false;
  };

  /// 16 bytes so a 4-child group spans one cache line. `key` packs the
  /// monotonic schedule-order stamp (bits 63..24, the deterministic
  /// tie-break) over the slot index (bits 23..0); comparing keys compares
  /// seq first, and seqs are unique. schedule_reserved() checks the slot
  /// count (kMaxSlots concurrent events) and reserve() the seq (kMaxSeq
  /// lifetime stamps).
  struct HeapEntry {
    util::SimTime at;
    std::uint64_t key;

    [[nodiscard]] std::uint32_t slot_index() const {
      return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
    }
  };

  static constexpr std::uint64_t kMaxSlots = 1u << 24;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 40;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  void place(std::size_t pos, const HeapEntry& e);
  std::size_t sift_up(std::size_t hole, const HeapEntry& e);
  std::size_t sift_down(std::size_t hole, const HeapEntry& e);
  void heap_push(HeapEntry entry);
  void heap_remove(std::size_t pos);
  void retire(std::uint32_t slot);

  PacketPool packets_;  // declared first: outlives slots_' pool handles
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap ordered by before()
  util::SimTime now_;
  std::uint64_t next_seq_ = 1;  ///< next stamp reserve() hands out
  std::size_t pending_ = 0;
  std::uint64_t executed_ = 0;

  // Telemetry (optional; see attach_observer).
  obs::Counter* executed_counter_ = nullptr;
  obs::Counter* scheduled_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace syndog::sim
