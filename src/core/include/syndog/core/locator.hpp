// Flooding-source localization (paper §4.2.3).
//
// Once SYN-dog alarms, the leaf router knows the sources are inside its
// own stub network. The locator keeps, per source MAC address, how many
// SYNs that station emitted and how many of those carried a *spoofed*
// source IP (one not inside the stub prefix) — the evidence ingress
// filtering checks. IP source addresses are useless during an attack;
// MAC addresses on the local segment are not.
//
// Every outbound SYN updates one station, so the evidence lives in a flat
// table: stations in first-seen order plus an open-addressing index keyed
// by the packed 48-bit MAC. A SYN from a station already seen costs one
// hash probe and allocates nothing; ranking happens only when asked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/util/time.hpp"

namespace syndog::core {

struct Suspect {
  net::MacAddress mac;
  std::uint64_t spoofed_syns = 0;  ///< SYNs with out-of-prefix source IP
  std::uint64_t total_syns = 0;
  util::SimTime first_seen;
  util::SimTime last_seen;
};

class SourceLocator {
 public:
  explicit SourceLocator(net::Ipv4Prefix stub_prefix)
      : stub_prefix_(stub_prefix) {}

  /// Feed every packet crossing the outbound interface.
  void on_packet(util::SimTime at, const net::Packet& packet);

  /// Stations ranked by spoofed-SYN count (descending, then MAC
  /// ascending); stations that never spoofed are omitted.
  [[nodiscard]] std::vector<Suspect> suspects() const;
  /// All stations that sent any SYN, ranked by total SYNs (descending,
  /// then MAC ascending).
  // syndog-lint: allow-next-line(api.test_only) -- reference view tests check the station table and its index against
  [[nodiscard]] std::vector<Suspect> stations() const;

  [[nodiscard]] std::uint64_t spoofed_total() const { return spoofed_total_; }
  /// Clears the evidence window (e.g. after an alarm has been handled).
  void reset();

 private:
  /// The station sending from `mac`, added (first seen at `at`) if new.
  Suspect& station(const net::MacAddress& mac, util::SimTime at);
  /// Rebuilds index_ with `slots` slots (a power of two) over stations_.
  void rehash(std::size_t slots);
  /// Where `mac`'s probe sequence starts in index_.
  [[nodiscard]] std::size_t home_slot(const net::MacAddress& mac) const;

  net::Ipv4Prefix stub_prefix_;
  /// Evidence per station, in first-seen order.
  std::vector<Suspect> stations_;
  /// Open-addressing index into stations_: power-of-two size, linear
  /// probing, load <= 1/2. A slot holds a position + 1; 0 is empty.
  std::vector<std::uint32_t> index_;
  std::uint64_t spoofed_total_ = 0;
};

}  // namespace syndog::core
