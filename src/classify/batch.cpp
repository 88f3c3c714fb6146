#include "syndog/classify/batch.hpp"

#include <bit>

#include "syndog/net/headers.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#define SYNDOG_SWEEP_SSE2 1
#elif defined(__aarch64__)
// vaddvq_u8 (horizontal add) needs A64; 32-bit NEON falls back to scalar.
#include <arm_neon.h>
#define SYNDOG_SWEEP_NEON 1
#endif

namespace syndog::classify {

namespace {

constexpr std::uint8_t kSynAckMask =
    net::TcpFlags::kSyn | net::TcpFlags::kAck;  // 0x12

}  // namespace

FlagSweep sweep_flags_scalar(std::span<const std::uint8_t> flags) {
  FlagSweep out;
  for (const std::uint8_t b : flags) {
    const std::uint8_t m = b & kSynAckMask;
    out.syn += m == net::TcpFlags::kSyn ? 1 : 0;
    out.syn_ack += m == kSynAckMask ? 1 : 0;
  }
  return out;
}

#if defined(SYNDOG_SWEEP_SSE2)

FlagSweep sweep_flags(std::span<const std::uint8_t> flags) {
  FlagSweep out;
  const std::uint8_t* p = flags.data();
  std::size_t n = flags.size();
  const __m128i mask = _mm_set1_epi8(static_cast<char>(kSynAckMask));
  const __m128i syn = _mm_set1_epi8(static_cast<char>(net::TcpFlags::kSyn));
  while (n >= 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i m = _mm_and_si128(v, mask);
    out.syn += static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(m, syn)))));
    out.syn_ack += static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(m, mask)))));
    p += 16;
    n -= 16;
  }
  out += sweep_flags_scalar({p, n});
  return out;
}

#elif defined(SYNDOG_SWEEP_NEON)

FlagSweep sweep_flags(std::span<const std::uint8_t> flags) {
  FlagSweep out;
  const std::uint8_t* p = flags.data();
  std::size_t n = flags.size();
  const uint8x16_t mask = vdupq_n_u8(kSynAckMask);
  const uint8x16_t syn = vdupq_n_u8(net::TcpFlags::kSyn);
  const uint8x16_t one = vdupq_n_u8(1);
  while (n >= 16) {
    const uint8x16_t v = vld1q_u8(p);
    const uint8x16_t m = vandq_u8(v, mask);
    // vceqq yields 0xff per matching lane; mask to 1 and sum the lanes.
    out.syn += vaddvq_u8(vandq_u8(vceqq_u8(m, syn), one));
    out.syn_ack += vaddvq_u8(vandq_u8(vceqq_u8(m, mask), one));
    p += 16;
    n -= 16;
  }
  out += sweep_flags_scalar({p, n});
  return out;
}

#else

FlagSweep sweep_flags(std::span<const std::uint8_t> flags) {
  return sweep_flags_scalar(flags);
}

#endif

}  // namespace syndog::classify
