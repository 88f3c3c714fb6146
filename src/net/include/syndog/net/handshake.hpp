// The TCP handshake's retransmission schedule.
//
// Paper §2: a half-open connection "is not closed until the failure of
// two retransmissions, which typically lasts for 75 seconds". Both
// handshake models read this one schedule: the DES endpoint
// (sim::TcpHost) for its client SYNs and server SYN/ACKs, and the trace
// generator (trace::generate_trace) for the SYNs one connection attempt
// sends across the leaf router.
#pragma once

#include <cstdint>

#include "syndog/util/time.hpp"

namespace syndog::net {

/// Retransmissions after the first SYN (or SYN/ACK) before giving up.
inline constexpr int kHandshakeRetransmissions = 2;
/// Timeout before the first retransmission.
inline constexpr util::SimTime kHandshakeInitialRto =
    util::SimTime::seconds(3);

/// Timeout before retransmission `n + 1`, counted from the transmission
/// before it: kHandshakeInitialRto doubled `n` times (3 s, then 6 s).
[[nodiscard]] constexpr util::SimTime handshake_rto(int n) {
  return kHandshakeInitialRto * (std::int64_t{1} << n);
}

}  // namespace syndog::net
