// Batched §2 flag classification: SIMD sweep over packed TCP-flag bytes.
//
// The per-frame classifier (segment.hpp) reads one flag byte at a time;
// at line rate that byte-at-a-time loop is the sniffer's hot spot. The
// sharded ingest datapath instead *packs* the flag byte of every frame it
// routes into a contiguous buffer and counts SYN / SYN-ACK over the whole
// span at once:
//
//   SYN      iff (b & (SYN|ACK)) == SYN        (connection request)
//   SYN-ACK  iff (b & (SYN|ACK)) == SYN|ACK    (connection acceptance)
//
// which is exactly the §2 decision the sniffers make (sniffer.hpp counts
// kSyn outbound and kSynAck inbound; the other segment kinds never feed
// the detector). Frames that carry no classifiable TCP flags — non-IPv4,
// non-TCP, non-first fragments — are represented by a byte with bit 7 set
// (net::FlowDigest::kNoTcpFlags): wire parsing masks real flag bytes to
// the six RFC 793 bits, so bit 7 never collides, and it makes both tests
// above fail, counting the frame as neither.
//
// sweep_flags() dispatches to an SSE2 or NEON kernel (16 flag bytes per
// step: mask, byte-compare, population count) when the target supports
// one, and to sweep_flags_scalar() otherwise. The two paths are proven
// equivalent on random buffers by classify_test; results are identical
// bit for bit, so the deterministic reference pump may use either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace syndog::classify {

/// SYN / SYN-ACK totals over one packed flag-byte span.
struct FlagSweep {
  std::uint64_t syn = 0;      ///< (b & (SYN|ACK)) == SYN
  std::uint64_t syn_ack = 0;  ///< (b & (SYN|ACK)) == SYN|ACK

  FlagSweep& operator+=(const FlagSweep& rhs) {
    syn += rhs.syn;
    syn_ack += rhs.syn_ack;
    return *this;
  }
  constexpr bool operator==(const FlagSweep&) const = default;
};

/// Portable reference sweep: one byte at a time. The SIMD kernels must
/// match this exactly (pinned by the randomized property test).
[[nodiscard]] FlagSweep sweep_flags_scalar(std::span<const std::uint8_t> flags);

/// Counts SYN / SYN-ACK bytes in `flags` using the best kernel the build
/// target supports. Bit-identical to sweep_flags_scalar().
[[nodiscard]] FlagSweep sweep_flags(std::span<const std::uint8_t> flags);

}  // namespace syndog::classify
