// Generic Internet space, the one model of a stub's far side.
//
// SYN-dog's signal comes from one causal loop (paper §2, Fig. 6): a SYN
// leaves the stub, and the Internet answers with a SYN/ACK one RTT later
// unless the source was spoofed. sim::InternetCloud routes a shared
// Internet through this responder; campaign::CampaignSim calls it per
// stub, with the stub's own Rng and counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "syndog/net/address.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

/// L2 source of every frame the Internet hands to a leaf router, and the
/// next hop of every Internet-side host.
[[nodiscard]] net::MacAddress internet_gateway_mac();

/// A generic remote server, uniform over [128.0.0.0, 160.0.0.0): outside
/// every stub prefix and the 240/8 spoof pool. One next_u32() draw.
[[nodiscard]] net::Ipv4Address draw_generic_server(util::Rng& rng);

/// Internet-side host `k` (0-based, in creation order) of a topology
/// seeded with `seed`: MAC MacAddress::for_host(0xE00000 + k), the
/// Internet gateway as next hop, and TcpHost seed
/// splitmix64(seed ^ (0xE000 + k)). `send` takes its output back into
/// the Internet's routing.
[[nodiscard]] std::unique_ptr<TcpHost> make_internet_host(
    net::Ipv4Address ip, std::uint32_t k, Scheduler& scheduler,
    PacketSink send, TcpHostParams params, std::uint64_t seed);

struct ResponderParams {
  /// Probability a generic remote server fails to answer a SYN (remote
  /// overload, far-side congestion).
  double no_answer_probability = 0.05;
  /// Median and dispersion of the lognormal far-side RTT (the links add
  /// their own delay). rtt_sigma == 0 selects exactly rtt_median_s with
  /// no rng draw, the seam the oracle-equivalence tests rely on.
  double rtt_median_s = 0.080;
  double rtt_sigma = 0.35;

  /// Throws std::invalid_argument unless no_answer_probability is in
  /// [0, 1), rtt_median_s > 0 and rtt_sigma >= 0.
  void validate() const;
};

/// What generic Internet space did with the segments routed to it. The
/// caller's routing bumps `dropped_unreachable`.
struct ResponderStats {
  std::uint64_t syns_seen = 0;
  std::uint64_t syn_acks_generated = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t dropped_unreachable = 0;  ///< destinations in the spoof pool
  std::uint64_t absorbed_elsewhere = 0;   ///< routed off our measurement path
};

/// A reply of generic Internet space, due `rtt` after the segment arrived.
struct ResponderReply {
  net::Packet packet;
  util::SimTime rtt;
};

/// How generic Internet space answers `segment`, one reply at most:
/// SYN -> no answer with no_answer_probability, else SYN/ACK with a drawn
/// ISN; SYN/ACK -> the final ACK, so a stub server's half-open slot
/// drains; FIN -> FIN|ACK, the far side's passive close (paper Fig. 1);
/// anything else, TCP or not -> absorbed and counted. Draws from `rng` in
/// the order no-answer, ISN, RTT; no RTT draw when rtt_sigma == 0.
[[nodiscard]] std::optional<ResponderReply> answer_segment(
    const net::Packet& segment, const ResponderParams& params,
    util::Rng& rng, ResponderStats& stats);

}  // namespace syndog::sim
