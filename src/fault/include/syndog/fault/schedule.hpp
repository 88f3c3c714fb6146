// Fault-injection schedule (chaos for the leaf router's first mile).
//
// A FaultSchedule is a validated list of timed fault windows — link flaps,
// burst loss, duplication, delay jitter/reordering, sniffer-tap outages,
// and asymmetric return routing — that a fault::ChaosController later
// attaches to a sim::StubNetworkSim. The schedule itself is pure data:
// deterministic, copyable, and inert until attached. An *empty* schedule
// attaches nothing at all, so every unfaulted experiment is byte-identical
// to one built without the fault layer.
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/util/time.hpp"

namespace syndog::fault {

/// What misbehaves.
enum class FaultKind : std::uint8_t {
  /// The link is administratively dead for the window: every packet is
  /// dropped (counted as dropped_link_down, not as loss).
  kLinkFlap = 0,
  /// Bernoulli loss at `magnitude` (the link is otherwise lossless).
  kBurstLoss = 1,
  /// Each packet is duplicated with probability `magnitude` (one extra
  /// copy, delivered shortly after the original).
  kDuplication = 2,
  /// Each packet gains an extra uniform delay in [0, bound]; a bound
  /// larger than the inter-packet spacing yields bounded reordering.
  kDelayJitter = 3,
  /// The router's span/tap feed is dead: forwarding continues but no
  /// sniffer tap fires, so the agent's counters silently gap.
  kTapOutage = 4,
  /// Asymmetric return routing: each returning SYN/ACK bypasses the
  /// monitored inbound interface with probability `magnitude` (it still
  /// reaches its host, invisible to the sniffer).
  kAsymmetricRoute = 5,
};

/// What the fault applies to.
enum class FaultTarget : std::uint8_t {
  kUplink = 0,    ///< router -> Internet link
  kDownlink = 1,  ///< Internet -> router link
  kRouter = 2,    ///< the leaf router itself (taps, return routing)
};

struct FaultSpec {
  FaultKind kind = FaultKind::kLinkFlap;
  FaultTarget target = FaultTarget::kDownlink;
  util::SimTime start;                       ///< window start (inclusive)
  util::SimTime end;                         ///< window end (exclusive)
  double magnitude = 0.0;                    ///< probability knob, in [0,1]
  util::SimTime bound = util::SimTime::zero();  ///< jitter bound

  /// Throws std::invalid_argument on nonsense (empty window, probability
  /// outside [0,1], router fault aimed at a link, ...).
  void validate() const;

  /// True when `now` lies inside [start, end).
  [[nodiscard]] bool active_at(util::SimTime now) const {
    return now >= start && now < end;
  }
};

class FaultSchedule {
 public:
  /// Appends a validated spec; returns *this for chaining.
  FaultSchedule& add(FaultSpec spec);

  // Convenience builders (all validate, all return *this).
  FaultSchedule& link_flap(FaultTarget target, util::SimTime start,
                           util::SimTime end);
  FaultSchedule& burst_loss(FaultTarget target, util::SimTime start,
                            util::SimTime end, double probability);
  FaultSchedule& duplication(FaultTarget target, util::SimTime start,
                             util::SimTime end, double probability);
  FaultSchedule& delay_jitter(FaultTarget target, util::SimTime start,
                              util::SimTime end, util::SimTime bound);
  FaultSchedule& tap_outage(util::SimTime start, util::SimTime end);
  FaultSchedule& asymmetric_route(util::SimTime start, util::SimTime end,
                                  double fraction);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace syndog::fault
