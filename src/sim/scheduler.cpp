#include "syndog/sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace syndog::sim {

namespace {
/// Generation bump that skips 0, so a default/garbage id (gen 0) can
/// never match a live slot even after the 32-bit generation wraps.
inline std::uint32_t next_gen(std::uint32_t gen) {
  return ++gen == 0 ? 1 : gen;
}
}  // namespace

void Scheduler::place(std::size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  slots_[e.slot_index()].heap_pos = static_cast<std::uint32_t>(pos);
}

std::size_t Scheduler::sift_up(std::size_t hole, const HeapEntry& e) {
  // Hole-based: shift parents down into the hole; the caller writes `e`
  // into the returned position exactly once.
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(hole, heap_[parent]);
    hole = parent;
  }
  return hole;
}

std::size_t Scheduler::sift_down(std::size_t hole, const HeapEntry& e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(hole, heap_[best]);
    hole = best;
  }
  return hole;
}

void Scheduler::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  place(sift_up(heap_.size() - 1, entry), entry);
}

void Scheduler::heap_remove(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry itself
  // Re-seat the former tail into the hole; it may belong above (the
  // removed entry could have been on another subtree's path) or below.
  const std::size_t up = sift_up(pos, last);
  if (up != pos) {
    place(up, last);
    return;
  }
  place(sift_down(pos, last), last);
}

void Scheduler::retire(std::uint32_t slot) { free_slots_.push_back(slot); }

std::uint64_t Scheduler::reserve(std::uint64_t n) {
  if (n > kMaxSeq - next_seq_) {
    throw std::overflow_error(
        "Scheduler: schedule-order stamp exhausted (2^40 events)");
  }
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

EventId Scheduler::schedule_at(util::SimTime at, Callback fn) {
  return schedule_reserved(at, reserve(1), std::move(fn));
}

EventId Scheduler::schedule_reserved(util::SimTime at, std::uint64_t stamp,
                                     Callback fn) {
  if (stamp == 0 || stamp >= next_seq_) {
    throw std::invalid_argument("Scheduler: stamp not reserved");
  }
  if (at < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  if (!fn) {
    throw std::invalid_argument("Scheduler: callback required");
  }
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= kMaxSlots) {
      throw std::length_error(
          "Scheduler: more than 2^24 events pending at once");
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.armed = true;
  heap_push(HeapEntry{at, (stamp << 24) | index});
  ++pending_;
  if (scheduled_counter_ != nullptr) {
    scheduled_counter_->add();
    depth_gauge_->set(static_cast<double>(pending_));
  }
  return make_id(index, slot.gen);
}

void Scheduler::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.gen != gen) return;  // executed, stale, unknown
  heap_remove(slot.heap_pos);
  slot.fn.reset();  // releases captured resources (e.g. pooled packets) now
  slot.armed = false;
  slot.gen = next_gen(slot.gen);
  retire(index);
  --pending_;
  if (cancelled_counter_ != nullptr) {
    cancelled_counter_->add();
  }
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  const HeapEntry entry = heap_.front();
  heap_remove(0);
  Slot& slot = slots_[entry.slot_index()];
  now_ = entry.at;
  ++executed_;
  --pending_;
  if (executed_counter_ != nullptr) {
    executed_counter_->add();
    depth_gauge_->set(static_cast<double>(pending_));
  }
  // Move the callback out and recycle the slot *before* invoking, so a
  // re-entrant schedule_at from inside the callback may reuse it.
  Callback fn = std::move(slot.fn);
  slot.armed = false;
  slot.gen = next_gen(slot.gen);
  retire(entry.slot_index());
  fn();
  return true;
}

void Scheduler::attach_observer(obs::Registry* registry) {
  if (registry != nullptr) {
    executed_counter_ = &registry->counter("sim.events_executed");
    scheduled_counter_ = &registry->counter("sim.events_scheduled");
    cancelled_counter_ = &registry->counter("sim.events_cancelled");
    depth_gauge_ = &registry->gauge("sim.queue_depth");
  } else {
    executed_counter_ = nullptr;
    scheduled_counter_ = nullptr;
    cancelled_counter_ = nullptr;
    depth_gauge_ = nullptr;
  }
}

std::size_t Scheduler::run_until(util::SimTime end) {
  std::size_t count = 0;
  // The heap holds live events only (cancel removes entries eagerly), so
  // the front's time bound is exact: nothing past `end` ever runs.
  while (!heap_.empty() && heap_.front().at <= end) {
    step();
    ++count;
  }
  if (now_ < end) now_ = end;
  return count;
}

std::size_t Scheduler::run_all(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) {
    ++count;
  }
  return count;
}

}  // namespace syndog::sim
