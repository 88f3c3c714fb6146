#include "syndog/fault/chaos.hpp"

#include <stdexcept>
#include <utility>

namespace syndog::fault {

// Applies the link-scoped fault windows of one link. Owns a private child
// Rng: draws happen only while a window is open and only for this link's
// packets, so the base traffic and loss streams never observe the fault
// layer's existence.
class ChaosController::LinkPerturber : public sim::LinkChaos {
 public:
  LinkPerturber(std::vector<const FaultSpec*> specs, util::Rng rng)
      : specs_(std::move(specs)), rng_(std::move(rng)) {}

  Verdict inspect(util::SimTime now, const net::Packet& packet) override {
    (void)packet;
    Verdict verdict;
    for (const FaultSpec* spec : specs_) {
      if (!spec->active_at(now)) continue;
      switch (spec->kind) {
        case FaultKind::kLinkFlap:
          // Down is down: no later window can resurrect the packet.
          verdict.drop = Drop::kLinkDown;
          return verdict;
        case FaultKind::kBurstLoss:
          if (verdict.drop == Drop::kNone &&
              rng_.bernoulli(spec->magnitude)) {
            verdict.drop = Drop::kLoss;
          }
          break;
        case FaultKind::kDuplication:
          if (rng_.bernoulli(spec->magnitude)) verdict.extra_copies += 1;
          break;
        case FaultKind::kDelayJitter:
          verdict.extra_delay =
              verdict.extra_delay +
              util::SimTime::nanoseconds(
                  rng_.uniform_int(0, spec->bound.ns()));
          break;
        case FaultKind::kTapOutage:
        case FaultKind::kAsymmetricRoute:
          break;  // router-scoped; never routed to a link perturber
      }
    }
    return verdict;
  }

 private:
  std::vector<const FaultSpec*> specs_;
  util::Rng rng_;
};

ChaosController::ChaosController(sim::StubNetworkSim& sim,
                                 FaultSchedule schedule, std::uint64_t seed)
    : sim_(sim),
      schedule_(std::move(schedule)),
      seed_(seed),
      asym_rng_(util::Rng::child(seed, 0xa5f1)) {
  for (const FaultSpec& spec : schedule_.specs()) spec.validate();
  install();
}

ChaosController::~ChaosController() {
  for (const sim::EventId id : edge_events_) sim_.scheduler().cancel(id);
  if (uplink_perturber_) sim_.uplink().set_chaos(nullptr);
  if (downlink_perturber_) sim_.downlink().set_chaos(nullptr);
  if (!asym_specs_.empty()) sim_.router().set_inbound_tap_bypass({});
}

void ChaosController::install() {
  const util::SimTime now = sim_.scheduler().now();
  std::vector<const FaultSpec*> uplink_specs;
  std::vector<const FaultSpec*> downlink_specs;
  for (const FaultSpec& spec : schedule_.specs()) {
    if (spec.start < now) {
      throw std::invalid_argument(
          "ChaosController: fault window opens in the past");
    }
    switch (spec.target) {
      case FaultTarget::kUplink:
        uplink_specs.push_back(&spec);
        break;
      case FaultTarget::kDownlink:
        downlink_specs.push_back(&spec);
        break;
      case FaultTarget::kRouter:
        if (spec.kind == FaultKind::kAsymmetricRoute) {
          asym_specs_.push_back(&spec);
        }
        break;
    }
    const FaultSpec* p = &spec;
    edge_events_.push_back(sim_.scheduler().schedule_at(
        spec.start, [this, p] { on_window_edge(*p, true); }));
    edge_events_.push_back(sim_.scheduler().schedule_at(
        spec.end, [this, p] { on_window_edge(*p, false); }));
  }
  if (!uplink_specs.empty()) {
    uplink_perturber_ = std::make_unique<LinkPerturber>(
        std::move(uplink_specs), util::Rng::child(seed_, 0x11));
    sim_.uplink().set_chaos(uplink_perturber_.get());
  }
  if (!downlink_specs.empty()) {
    downlink_perturber_ = std::make_unique<LinkPerturber>(
        std::move(downlink_specs), util::Rng::child(seed_, 0x22));
    sim_.downlink().set_chaos(downlink_perturber_.get());
  }
  if (!asym_specs_.empty()) {
    sim_.router().set_inbound_tap_bypass(
        [this](util::SimTime at, const net::Packet& packet) {
          return divert_inbound(at, packet);
        });
  }
}

void ChaosController::on_window_edge(const FaultSpec& spec, bool active) {
  if (spec.kind == FaultKind::kTapOutage) {
    const std::int64_t before = open_tap_outages_;
    open_tap_outages_ += active ? 1 : -1;
    sim_.router().set_taps_enabled(open_tap_outages_ == 0);
    const bool was_out = before > 0;
    const bool is_out = open_tap_outages_ > 0;
    if (was_out != is_out && outage_listener_) {
      outage_listener_(sim_.scheduler().now(), is_out);
    }
  }
}

bool ChaosController::divert_inbound(util::SimTime now,
                                     const net::Packet& packet) {
  if (!packet.is_syn_ack()) return false;
  for (const FaultSpec* spec : asym_specs_) {
    if (!spec->active_at(now)) continue;
    if (asym_rng_.bernoulli(spec->magnitude)) {
      ++diverted_syn_acks_;
      return true;
    }
    // Exactly one window's draw per packet: overlapping asym windows do
    // not compound.
    return false;
  }
  return false;
}

}  // namespace syndog::fault
