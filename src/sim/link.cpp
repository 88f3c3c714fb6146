#include "syndog/sim/link.hpp"

#include <algorithm>
#include <stdexcept>

namespace syndog::sim {

Link::Link(Scheduler& scheduler, LinkParams params, Deliver deliver,
           std::uint64_t seed)
    : scheduler_(scheduler), params_(params), deliver_(std::move(deliver)),
      rng_(seed) {
  if (!deliver_) {
    throw std::invalid_argument("Link: deliver callback required");
  }
  if (params_.loss_probability < 0.0 || params_.loss_probability >= 1.0) {
    throw std::invalid_argument("Link: loss_probability in [0,1)");
  }
  if (params_.bandwidth_bps < 0.0) {
    throw std::invalid_argument("Link: bandwidth must be >= 0");
  }
}

void Link::schedule_delivery(util::SimTime at, net::Packet packet) {
  ++in_flight_;
  // The in-flight packet rides in the scheduler's pool; the event captures
  // only the pool handle, so steady-state delivery allocates nothing.
  scheduler_.schedule_at(
      at, [this, h = scheduler_.packets().acquire(std::move(packet))]() {
        --in_flight_;
        ++delivered_;
        deliver_(*h);
      });
}

void Link::send(const net::Packet& packet) {
  ++sent_;

  // Fault layer first: a downed link accepts nothing, injected loss models
  // first-mile lossiness beyond the base model. The perturber draws from
  // its own Rng, so this link's base loss stream is untouched.
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

  if (params_.queue_limit != 0 && in_flight_ >= params_.queue_limit) {
    ++dropped_queue_full_;
    return;
  }
  if (params_.loss_probability > 0.0 &&
      rng_.bernoulli(params_.loss_probability)) {
    ++lost_;
    return;
  }

  util::SimTime depart = scheduler_.now();
  if (params_.bandwidth_bps > 0.0) {
    // Serialize after the previous packet finishes.
    const double tx_seconds =
        static_cast<double>(packet.frame_bytes()) * 8.0 /
        params_.bandwidth_bps;
    const util::SimTime start = std::max(depart, tx_free_at_);
    tx_free_at_ = start + util::SimTime::from_seconds(tx_seconds);
    depart = tx_free_at_;
  }

  util::SimTime arrival = depart + params_.delay;
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
