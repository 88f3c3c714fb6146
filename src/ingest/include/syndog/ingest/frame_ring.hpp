// Bounded single-producer / single-consumer slot ring.
//
// SlotRing<Slot> is the ingest side's only buffer between a producer and
// a consumer: a fixed number of slots allocated once at construction and
// recycled forever, so streaming an arbitrarily large capture runs in
// O(capacity) memory with no steady-state allocation (the same
// slot-arena discipline as sim::PacketPool). Slots are trivially
// copyable value types, so filling one is a plain overwrite, and the
// arena is raw storage that no constructor ever writes: the producer
// writes each slot before the consumer can read it. The sharded datapath
// hands net::FlowDigest slots from its producer to each shard's consumer.
//
// Concurrency contract: exactly one producer thread calls try_claim() /
// publish() (or commit() / flush()); exactly one consumer thread calls
// readable() / release(). Both roles may also run on one thread. Capacity
// is rounded up to a power of two so index masking replaces modulo.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "syndog/net/packet.hpp"
#include "syndog/util/time.hpp"

namespace syndog::ingest {

/// One decoded capture record: what ReplayEngine hands its sinks.
struct Frame {
  util::SimTime at;                  ///< capture timestamp
  net::Packet packet;                ///< decoded link/network/transport
  std::uint32_t wire_bytes = 0;      ///< original length on the wire
  std::uint32_t captured_bytes = 0;  ///< bytes present in the capture
};

template <class Slot>
class SlotRing {
  static_assert(std::is_trivially_copyable_v<Slot> &&
                    std::is_trivially_destructible_v<Slot>,
                "SlotRing slots live in raw storage: filled by plain "
                "assignment, never constructed or destroyed");

 public:
  /// Rounds `capacity` up to a power of two (minimum 2) and allocates all
  /// slots up front, uninitialized. This is the only allocation the ring
  /// ever performs. Throws std::invalid_argument for 0, or when the
  /// round-up does not fit in std::size_t.
  explicit SlotRing(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument(
          "SlotRing: capacity must be positive (a zero-capacity ring could "
          "never publish a slot)");
    }
    if (capacity > std::bit_floor(std::numeric_limits<std::size_t>::max())) {
      throw std::invalid_argument(
          "SlotRing: capacity must round up to a power of two that fits in "
          "std::size_t");
    }
    const std::size_t pow2 = std::bit_ceil(std::max<std::size_t>(capacity, 2));
    // std::allocator takes the bytes from ::operator new (so allocation
    // meters that hook it count the ring) and constructs no slot.
    slots_ = {std::allocator<Slot>{}.allocate(pow2), FreeStorage{pow2}};
    mask_ = pow2 - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  /// Published slots not yet released. Exact on the owning threads; a
  /// snapshot otherwise.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        head_.load(std::memory_order_acquire) -
        tail_.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  // -- producer side ------------------------------------------------------

  /// Slot to fill next, or nullptr when the ring is full. The slot is not
  /// visible to the consumer until publish() (or commit() and flush()).
  /// The consumer's cursor is re-read only when the cached copy says the
  /// ring is full, so steady state costs no shared-cache-line traffic per
  /// claim. A producer that waits on a full ring must flush() first.
  [[nodiscard]] Slot* try_claim() {
    if (written_ - cached_tail_ == capacity()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (written_ - cached_tail_ == capacity()) return nullptr;
    }
    return &slots_[static_cast<std::size_t>(written_) & mask_];
  }

  /// Makes the slot returned by the last try_claim() visible.
  void publish() {
    commit();
    flush();
  }

  /// Adds the slot returned by the last try_claim() to the pending batch,
  /// which the consumer does not see until flush(). Returns the number of
  /// pending slots.
  std::size_t commit() {
    return static_cast<std::size_t>(++written_ - flushed_);
  }

  /// Makes every committed slot visible. One store to the shared cursor
  /// per batch: a consumer on another core polls that cursor, so each
  /// store moves its cache line between the cores.
  void flush() {
    flushed_ = written_;
    head_.store(written_, std::memory_order_release);
  }

  // -- consumer side ------------------------------------------------------

  /// Longest contiguous run of published frames (the run stops at the
  /// array wrap point; call again after release() for the rest).
  [[nodiscard]] std::span<const Slot> readable() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    const std::size_t at = static_cast<std::size_t>(tail) & mask_;
    return {slots_.get() + at, std::min(n, capacity() - at)};
  }

  /// Recycles the first `n` readable slots back to the producer.
  void release(std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (n > static_cast<std::size_t>(
                head_.load(std::memory_order_acquire) - tail)) {
      throw std::logic_error(
          "SlotRing: releasing more slots than are readable (release(n) "
          "must not exceed the published count)");
    }
    tail_.store(tail + n, std::memory_order_release);
  }

 private:
  struct FreeStorage {
    std::size_t count = 0;
    void operator()(Slot* slots) const {
      std::allocator<Slot>{}.deallocate(slots, count);
    }
  };

  std::unique_ptr<Slot[], FreeStorage> slots_;
  std::size_t mask_ = 0;
  /// The shared cursors and the producer's private ones on three cache
  /// lines, so the producer's per-slot bookkeeping never touches a line
  /// the consumer reads. `cached_tail_` is a conservative, monotonic
  /// snapshot of `tail_`.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< end of published slots
  alignas(64) std::uint64_t written_ = 0;  ///< producer: next slot to fill
  std::uint64_t flushed_ = 0;              ///< producer: last head_ stored
  std::uint64_t cached_tail_ = 0;          ///< producer's tail view
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next slot to read
};

}  // namespace syndog::ingest
