// Victim-side defenses (the stateful prior art of paper §1).
//
// SYN cookies and SYN caches mitigate the *effect* of a flood at the
// victim but keep per-connection state or computation there, cannot name
// the flooding sources, and leave tracing to expensive IP traceback.
// TcpHost's cookie mode runs on this codec; the ddos_campaign example
// and the micro benches contrast their per-victim cost against SYN-dog's
// two counters at the leaf router.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "syndog/net/address.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

/// Connection 4-tuple key for the victim-side structures.
struct ConnKey {
  net::Ipv4Address client_ip;
  std::uint16_t client_port = 0;
  std::uint16_t server_port = 0;

  bool operator==(const ConnKey&) const = default;
  [[nodiscard]] std::uint64_t packed() const {
    return (std::uint64_t{client_ip.value()} << 32) |
           (std::uint64_t{client_port} << 16) | server_port;
  }
};

/// Stateless SYN-cookie codec (Bernstein-style): the server's ISN is a
/// 29-bit keyed tag over the 4-tuple and the client ISN, with a 3-bit
/// counter of 64 s windows in the low bits, so the final ACK can be
/// validated with zero stored state. The cost moves from memory to
/// per-SYN computation — which is why cookie-protected servers still
/// fall to high-rate floods (the 14,000 SYN/s figure of [8]).
class SynCookieCodec {
 public:
  static constexpr std::int64_t kWindowNs = 64'000'000'000;

  explicit SynCookieCodec(std::uint64_t secret) : secret_(secret) {}

  /// The time counter at `now`: one tick per 64 s window.
  [[nodiscard]] static std::uint64_t counter_at(util::SimTime now) {
    return static_cast<std::uint64_t>(now.ns() / kWindowNs);
  }

  /// Cookie issued as the server ISN; only the low 3 bits of
  /// `time_counter` are encoded.
  [[nodiscard]] std::uint32_t make(const ConnKey& key,
                                   std::uint32_t client_isn,
                                   std::uint64_t time_counter) const;

  /// Validates the ISN echoed in a final ACK (ack-1). Accepts the current
  /// and the previous window.
  [[nodiscard]] bool verify(const ConnKey& key, std::uint32_t client_isn,
                            std::uint32_t cookie,
                            std::uint64_t now_counter) const;

 private:
  std::uint64_t secret_;
};

/// Bounded half-open store with oldest-first eviction (a SYN cache).
/// Under flood it thrashes: legitimate entries are evicted before their
/// handshakes complete — measurable via the stats.
class SynCache {
 public:
  explicit SynCache(std::size_t capacity);

  enum class AdmitResult : std::uint8_t {
    kAdmitted,
    kDuplicate,
    kAdmittedWithEviction
  };

  AdmitResult admit(const ConnKey& key, util::SimTime now);
  /// Final ACK arrived: true if the entry was present (handshake
  /// completes), false if it had been evicted or never admitted.
  bool complete(const ConnKey& key);
  /// Drops entries older than `age` relative to `now`.
  std::size_t expire(util::SimTime now, util::SimTime age);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t evictions = 0;
    std::uint64_t completions = 0;
    std::uint64_t completion_misses = 0;  ///< ACK for an evicted entry
    std::uint64_t expirations = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    ConnKey key;
    util::SimTime admitted_at;
  };
  using Order = std::list<Entry>;

  std::size_t capacity_;
  Order order_;  ///< oldest at front
  std::unordered_map<std::uint64_t, Order::iterator> index_;
  Stats stats_;
};

}  // namespace syndog::sim
