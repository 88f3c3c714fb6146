#include "syndog/sim/victim_defense.hpp"

#include <stdexcept>

#include "syndog/util/rng.hpp"

namespace syndog::sim {

std::uint32_t SynCookieCodec::make(const ConnKey& key,
                                   std::uint32_t client_isn,
                                   std::uint64_t time_counter) const {
  // Top 29 bits: SplitMix64 rounds keyed by the secret, cheap and
  // adequate for a simulation-grade keyed hash; bottom 3 bits: the time
  // counter mod 8.
  constexpr std::uint32_t kTagBits = 29;
  const auto counter = static_cast<std::uint32_t>(time_counter & 7);
  const std::uint64_t hash = util::splitmix64(
      secret_ ^ util::splitmix64(key.packed()) ^
      util::splitmix64((std::uint64_t{client_isn} << 3) | counter));
  const auto tag = static_cast<std::uint32_t>(hash & ((1u << kTagBits) - 1));
  return (tag << 3) | counter;
}

bool SynCookieCodec::verify(const ConnKey& key, std::uint32_t client_isn,
                            std::uint32_t cookie,
                            std::uint64_t now_counter) const {
  // The 3-bit field wraps, so window 0's predecessor encodes as 7.
  return cookie == make(key, client_isn, now_counter) ||
         cookie == make(key, client_isn, now_counter - 1);
}

SynCache::SynCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("SynCache: capacity must be at least 1");
  }
}

SynCache::AdmitResult SynCache::admit(const ConnKey& key, util::SimTime now) {
  const std::uint64_t packed = key.packed();
  if (index_.contains(packed)) {
    ++stats_.duplicates;
    return AdmitResult::kDuplicate;
  }
  bool evicted = false;
  if (order_.size() >= capacity_) {
    // Oldest-first eviction: the flood's spoofed entries are usually the
    // oldest (no ACK ever completes them), but under sustained overload
    // legitimate half-opens get evicted too — the failure the stats show.
    index_.erase(order_.front().key.packed());
    order_.pop_front();
    ++stats_.evictions;
    evicted = true;
  }
  order_.push_back(Entry{key, now});
  index_[packed] = std::prev(order_.end());
  ++stats_.admitted;
  return evicted ? AdmitResult::kAdmittedWithEviction
                 : AdmitResult::kAdmitted;
}

bool SynCache::complete(const ConnKey& key) {
  const auto it = index_.find(key.packed());
  if (it == index_.end()) {
    ++stats_.completion_misses;
    return false;
  }
  order_.erase(it->second);
  index_.erase(it);
  ++stats_.completions;
  return true;
}

std::size_t SynCache::expire(util::SimTime now, util::SimTime age) {
  std::size_t dropped = 0;
  while (!order_.empty() && order_.front().admitted_at + age <= now) {
    index_.erase(order_.front().key.packed());
    order_.pop_front();
    ++dropped;
    ++stats_.expirations;
  }
  return dropped;
}

}  // namespace syndog::sim
