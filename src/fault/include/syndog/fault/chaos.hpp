// ChaosController: attaches a FaultSchedule to a running stub-network sim.
//
// The controller owns one LinkChaos perturber per faulted link and wires
// the router-level faults (tap outage, asymmetric return routing) through
// the router's fault seams. Each perturber draws from its *own*
// util::Rng child stream, so attaching a schedule never advances the base
// traffic/loss RNG streams: an empty schedule — or a schedule whose
// windows never open — leaves every packet-level outcome of the
// simulation byte-identical to an unfaulted run.
//
// Tap-outage window edges are announced through an optional callback the
// agent harness can route into core::SynDogAgent::notify_sniffer_outage
// (the fault layer itself does not depend on core).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "syndog/fault/schedule.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::fault {

class ChaosController {
 public:
  /// Fired on tap-outage window edges: (time, outage now active).
  using OutageListener = std::function<void(util::SimTime, bool)>;

  /// Attaches `schedule` to `sim` (which must outlive the controller).
  /// Perturbers are installed on the faulted links, window-edge events are
  /// scheduled on the sim's scheduler, and router faults are wired to the
  /// router seams. An empty schedule installs nothing.
  ChaosController(sim::StubNetworkSim& sim, FaultSchedule schedule,
                  std::uint64_t seed);

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;
  ~ChaosController();

  /// True when at least one fault was installed.
  [[nodiscard]] bool attached() const { return !schedule_.empty(); }

  /// Registers the sink for tap-outage edges (e.g. the agent's
  /// notify_sniffer_outage). Must be set before the first window opens to
  /// see that edge; nullptr-like empty function disables.
  void set_outage_listener(OutageListener listener) {
    outage_listener_ = std::move(listener);
  }

  /// SYN/ACKs diverted around the inbound tap so far.
  [[nodiscard]] std::uint64_t diverted_syn_acks() const {
    return diverted_syn_acks_;
  }

 private:
  class LinkPerturber;

  void install();
  void on_window_edge(const FaultSpec& spec, bool active);
  [[nodiscard]] bool divert_inbound(util::SimTime now,
                                    const net::Packet& packet);

  sim::StubNetworkSim& sim_;
  FaultSchedule schedule_;
  std::uint64_t seed_;
  util::Rng asym_rng_;
  std::unique_ptr<LinkPerturber> uplink_perturber_;
  std::unique_ptr<LinkPerturber> downlink_perturber_;
  std::vector<const FaultSpec*> asym_specs_;
  std::vector<sim::EventId> edge_events_;
  OutageListener outage_listener_;
  std::int64_t open_tap_outages_ = 0;
  std::uint64_t diverted_syn_acks_ = 0;
};

}  // namespace syndog::fault
