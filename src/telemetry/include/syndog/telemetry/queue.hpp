// Bounded multi-producer / single-consumer queue of POD samples.
//
// The fleet-telemetry seam between the DES hot path and the aggregation
// consumer thread (docs/OBSERVABILITY.md §Fleet telemetry). Producers are
// the per-agent wiring in src/core: push() must never block the event
// loop, so the queue is a fixed ring of slots claimed with one CAS
// (Vyukov's bounded-queue algorithm) and a full queue fails the push
// instead of waiting — the caller counts the drop. The single consumer
// (telemetry::TelemetrySink's drain thread, or the same thread in the
// deterministic inline mode) pops in FIFO order; with one producer thread
// the global order is exactly the push order, which is what makes the
// threaded drain byte-identical to the inline reference.
//
// All slots are allocated once at construction and recycled forever.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace syndog::telemetry {

/// Bounded MPMC ring (used as MPSC throughout the tree). `T` must be
/// trivially copyable: slots are plain overwrites, never constructions.
template <typename T>
class SampleQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "SampleQueue slots are raw copies");

 public:
  /// Rounds `capacity` up to a power of two (minimum 2) and allocates all
  /// slots up front — the only allocation the queue ever performs.
  explicit SampleQueue(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("SampleQueue: capacity must be positive");
    }
    std::size_t pow2 = 2;
    while (pow2 < capacity) pow2 <<= 1;
    cells_ = std::vector<Cell>(pow2);
    mask_ = pow2 - 1;
    for (std::size_t i = 0; i < pow2; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

  /// Occupied slots; exact only when producers and consumer are quiescent.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Enqueues one sample; returns false (without blocking or spinning
  /// unboundedly) when the queue is full. Safe from any number of threads.
  [[nodiscard]] bool try_push(const T& value) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[static_cast<std::size_t>(pos) & mask_];
      const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry at the new head.
      } else if (diff < 0) {
        return false;  // full: the slot still holds an unconsumed sample
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeues one sample into `out`; returns false when empty. Single
  /// consumer only.
  [[nodiscard]] bool try_pop(T& out) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[static_cast<std::size_t>(pos) & mask_];
    const std::uint64_t seq = cell.sequence.load(std::memory_order_acquire);
    const auto diff = static_cast<std::int64_t>(seq) -
                      static_cast<std::int64_t>(pos + 1);
    if (diff < 0) return false;  // producer has not published this slot yet
    out = cell.value;
    cell.sequence.store(pos + cells_.size(), std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> sequence{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  /// Producer and consumer cursors on separate cache lines so concurrent
  /// push/pop does not false-share (same discipline as ingest::SlotRing).
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next slot to claim
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next slot to read
};

}  // namespace syndog::telemetry
