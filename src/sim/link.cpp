#include "syndog/sim/link.hpp"

#include <stdexcept>
#include <utility>

namespace syndog::sim {

Link::Link(Scheduler& scheduler, util::SimTime delay, Deliver deliver)
    : scheduler_(scheduler), delay_(delay), deliver_(std::move(deliver)) {
  if (!deliver_) {
    throw std::invalid_argument("Link: deliver callback required");
  }
}

void Link::schedule_delivery(util::SimTime at, net::Packet packet) {
  // The in-flight packet rides in the scheduler's pool; the event captures
  // only the pool handle, so steady-state delivery allocates nothing.
  scheduler_.schedule_at(
      at, [this, h = scheduler_.packets().acquire(std::move(packet))]() {
        ++delivered_;
        deliver_(*h);
      });
}

void Link::send(const net::Packet& packet) {
  ++sent_;

  // Fault layer: a downed link accepts nothing, injected loss models
  // first-mile lossiness. The perturber draws from its own Rng.
  LinkChaos::Verdict verdict;
  if (chaos_ != nullptr) {
    verdict = chaos_->inspect(scheduler_.now(), packet);
    if (verdict.drop == LinkChaos::Drop::kLinkDown) {
      ++dropped_link_down_;
      return;
    }
    if (verdict.drop == LinkChaos::Drop::kLoss) {
      ++dropped_chaos_loss_;
      return;
    }
  }

  util::SimTime arrival = scheduler_.now() + delay_;
  if (verdict.extra_delay > util::SimTime::zero()) {
    ++delayed_;
    arrival = arrival + verdict.extra_delay;
  }
  schedule_delivery(arrival, packet);
  for (std::uint32_t copy = 1; copy <= verdict.extra_copies; ++copy) {
    ++duplicated_;
    schedule_delivery(
        arrival + verdict.copy_spacing * static_cast<std::int64_t>(copy),
        packet);
  }
}

}  // namespace syndog::sim
