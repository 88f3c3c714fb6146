// TCP three-way-handshake outcome model.
//
// For every connection attempt, this decides what the *leaf router* sees:
// which SYN (re)transmissions cross it and whether/when a SYN/ACK comes
// back. The paper attributes SYN–SYN/ACK discrepancy to two causes — SYN
// requests dropped by overloaded servers, and SYNs lost on a congested
// forwarding path — both of which collapse, from the router's viewpoint,
// into "this transmission produced no SYN/ACK", modeled here as a
// per-transmission no-answer probability.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "syndog/trace/arrivals.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::trace {

/// Direction of a connection relative to the stub network.
enum class Direction : std::uint8_t {
  kOutbound = 0,  ///< client inside the stub, server on the Internet
  kInbound = 1,   ///< client on the Internet, server inside the stub
};

/// An unanswered SYN is retransmitted on net/handshake.hpp's schedule
/// (the paper's "failure of two retransmissions": 3 s, then 6 s).
struct HandshakeParams {
  /// Probability that one SYN transmission goes unanswered (path loss or
  /// server-overload drop).
  double no_answer_probability = 0.05;
  /// Lognormal RTT of the SYN -> SYN/ACK pair, parameterized by median and
  /// dispersion (sigma of the underlying normal).
  double rtt_median_s = 0.120;
  double rtt_sigma = 0.35;

  void validate() const;
};

/// What the leaf router records for one connection attempt.
struct Handshake {
  Direction direction = Direction::kOutbound;
  /// Every SYN transmission crossing the router (initial + retransmissions),
  /// ascending.
  std::vector<util::SimTime> syn_times;
  /// The SYN/ACK crossing the router in the reverse direction, if the
  /// handshake was ever answered.
  std::optional<util::SimTime> syn_ack_time;

  [[nodiscard]] bool answered() const { return syn_ack_time.has_value(); }
  [[nodiscard]] util::SimTime first_syn() const { return syn_times.front(); }
};

/// A generated background trace: all handshakes of one site, one direction.
struct ConnectionTrace {
  util::SimTime duration;
  std::vector<Handshake> handshakes;  ///< sorted by first SYN time

  [[nodiscard]] std::size_t attempts() const { return handshakes.size(); }
  [[nodiscard]] std::size_t total_syns() const;
  [[nodiscard]] std::size_t total_syn_acks() const;
};

/// Time-varying no-answer probability: the base rate plus transient
/// elevated windows (remote outages, congestion events, flash crowds
/// hitting dead servers). These windows are what produces the small
/// isolated spikes of {yn} the paper observes under normal operation
/// (Fig. 5) — without them a well-provisioned site never accumulates.
class LossProcess {
 public:
  explicit LossProcess(double base_probability);

  /// Adds one elevated window; overlapping windows take the max.
  void add_window(util::SimTime start, util::SimTime duration,
                  double probability);

  /// No-answer probability in effect at `at`.
  [[nodiscard]] double at(util::SimTime at) const;
  [[nodiscard]] double base() const { return base_; }
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }

  /// Poisson-placed disruption windows over [0, duration): on average
  /// `events_per_hour` events of exponential mean length
  /// `mean_event_seconds` (truncated at `max_event_seconds`; 0 = no cap),
  /// each raising the probability to `event_p`. The cap bounds how much
  /// the CUSUM statistic can accumulate across one event, which is what
  /// keeps normal-operation spikes below the flooding threshold.
  [[nodiscard]] static LossProcess with_random_disruptions(
      double base_probability, util::SimTime duration,
      double events_per_hour, double mean_event_seconds, double event_p,
      util::Rng& rng, double max_event_seconds = 0.0);

 private:
  struct Window {
    util::SimTime start;
    util::SimTime end;
    double probability;
  };
  double base_;
  std::vector<Window> windows_;  ///< sorted by start
};

/// Expands arrival times into handshakes. SYN/ACKs may land after
/// `duration`; they are kept (period extraction clips as needed).
[[nodiscard]] ConnectionTrace generate_trace(const ArrivalModel& arrivals,
                                             util::SimTime duration,
                                             const HandshakeParams& params,
                                             Direction direction,
                                             util::Rng& rng);

/// As above, with a time-varying no-answer probability; each SYN
/// transmission consults `loss.at()` at its own emission time (so a
/// retransmission during an outage fails with the elevated probability).
[[nodiscard]] ConnectionTrace generate_trace(const ArrivalModel& arrivals,
                                             util::SimTime duration,
                                             const HandshakeParams& params,
                                             const LossProcess& loss,
                                             Direction direction,
                                             util::Rng& rng);

/// Merges two traces (e.g. outbound + inbound of a bidirectional site).
/// Durations must match.
[[nodiscard]] ConnectionTrace merge_traces(ConnectionTrace a,
                                           ConnectionTrace b);

/// Closed-form calibration helpers for the no-answer model with
/// per-transmission loss p and R = net::kHandshakeRetransmissions:
///   expected SYNs per attempt      = 1 + p + ... + p^R
///   P(attempt ever answered)       = 1 - p^(R+1)
///   c = E[Delta]/E[SYNACK]         = (sum_{k=1..R+1} p^k) / (1 - p^(R+1))
[[nodiscard]] double expected_syns_per_attempt(double p);
[[nodiscard]] double answer_probability(double p);
[[nodiscard]] double normalized_difference_mean(double p);

}  // namespace syndog::trace
