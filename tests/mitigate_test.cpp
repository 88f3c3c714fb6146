#include <gtest/gtest.h>

#include "syndog/sim/victim_defense.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {
namespace {

using util::SimTime;

ConnKey key_of(std::uint32_t ip, std::uint16_t port) {
  return ConnKey{net::Ipv4Address{ip}, port, 80};
}

// --- SynCookieCodec -----------------------------------------------------------

TEST(SynCookiesTest, RoundTripVerifies) {
  SynCookieCodec codec(0x1234567890abcdefULL);
  const ConnKey key = key_of(0x0a010203, 44321);
  const std::uint32_t isn = 0xfeedbeef;
  const std::uint32_t cookie = codec.make(key, isn, 100);
  EXPECT_TRUE(codec.verify(key, isn, cookie, 100));
  // Still valid one counter tick later (the client took a while to ACK).
  EXPECT_TRUE(codec.verify(key, isn, cookie, 101));
  // Expired two ticks later.
  EXPECT_FALSE(codec.verify(key, isn, cookie, 102));
}

TEST(SynCookiesTest, RejectsTamperedFields) {
  SynCookieCodec codec(42);
  const ConnKey key = key_of(0x0a010203, 44321);
  const std::uint32_t cookie = codec.make(key, 7, 100);
  EXPECT_FALSE(codec.verify(key_of(0x0a010204, 44321), 7, cookie, 100));
  EXPECT_FALSE(codec.verify(key_of(0x0a010203, 44322), 7, cookie, 100));
  EXPECT_FALSE(codec.verify(key, 8, cookie, 100));
  EXPECT_FALSE(codec.verify(key, 7, cookie ^ 0x100, 100));
}

TEST(SynCookiesTest, DifferentSecretsDisagree) {
  SynCookieCodec a(1);
  SynCookieCodec b(2);
  const ConnKey key = key_of(0x0a010203, 1000);
  const std::uint32_t cookie = a.make(key, 7, 50);
  EXPECT_FALSE(b.verify(key, 7, cookie, 50));
}

TEST(SynCookiesTest, ForgeryResistanceSpotCheck) {
  // A blind attacker guessing cookies should practically never succeed.
  SynCookieCodec codec(0xdeadbeefcafef00dULL);
  const ConnKey key = key_of(0x0a010203, 1000);
  util::Rng rng(5);
  int accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    if (codec.verify(key, 7, rng.next_u32(), 100)) ++accepted;
  }
  // 29 bits of MAC and 2 accepted counter windows: expect ~0.04 hits.
  EXPECT_LE(accepted, 3);
}

// --- SynCache -------------------------------------------------------------------

TEST(SynCacheTest, AdmitCompleteLifecycle) {
  SynCache cache(8);
  const ConnKey key = key_of(1, 1000);
  EXPECT_EQ(cache.admit(key, SimTime::zero()),
            SynCache::AdmitResult::kAdmitted);
  EXPECT_EQ(cache.admit(key, SimTime::zero()),
            SynCache::AdmitResult::kDuplicate);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.complete(key));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.complete(key));  // already gone
  EXPECT_EQ(cache.stats().completions, 1u);
  EXPECT_EQ(cache.stats().completion_misses, 1u);
}

TEST(SynCacheTest, EvictsOldestWhenFull) {
  SynCache cache(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    (void)cache.admit(key_of(i, 1000), SimTime::seconds(i));
  }
  EXPECT_EQ(cache.admit(key_of(99, 1000), SimTime::seconds(9)),
            SynCache::AdmitResult::kAdmittedWithEviction);
  EXPECT_EQ(cache.size(), 3u);
  // The oldest (ip 0) was evicted; its late ACK misses.
  EXPECT_FALSE(cache.complete(key_of(0, 1000)));
  EXPECT_TRUE(cache.complete(key_of(1, 1000)));
}

TEST(SynCacheTest, FloodThrashesLegitimateEntries) {
  // The failure mode SYN-dog avoids by being stateless: under a spoofed
  // flood, a bounded victim-side cache evicts honest half-opens before
  // their ACKs arrive.
  SynCache cache(64);
  util::Rng rng(7);
  // A legitimate client connects...
  const ConnKey honest = key_of(0x0a000001, 5555);
  (void)cache.admit(honest, SimTime::zero());
  // ...then 10,000 spoofed SYNs land before its ACK returns.
  for (int i = 0; i < 10000; ++i) {
    (void)cache.admit(key_of(rng.next_u32(), 80), SimTime::zero());
  }
  EXPECT_FALSE(cache.complete(honest));
  EXPECT_GT(cache.stats().evictions, 9000u);
}

TEST(SynCacheTest, ExpireDropsOnlyOldEntries) {
  SynCache cache(16);
  (void)cache.admit(key_of(1, 1), SimTime::seconds(0));
  (void)cache.admit(key_of(2, 2), SimTime::seconds(50));
  EXPECT_EQ(cache.expire(SimTime::seconds(76), SimTime::seconds(75)), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.complete(key_of(2, 2)));
}

TEST(SynCacheTest, RejectsZeroCapacity) {
  EXPECT_THROW(SynCache{0}, std::invalid_argument);
}

}  // namespace
}  // namespace syndog::sim
