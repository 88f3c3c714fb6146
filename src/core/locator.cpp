// syndog-lint: hotpath-file -- every outbound SYN lands here; see
// `syndog_lint --explain hotpath.allocation`.
#include "syndog/core/locator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "syndog/classify/segment.hpp"

namespace syndog::core {

namespace {

/// index_'s size once the first station arrives.
constexpr std::size_t kMinSlots = 16;

/// The MAC as a 48-bit integer, first byte most significant.
std::uint64_t pack(const net::MacAddress& mac) {
  std::uint64_t key = 0;
  for (const std::uint8_t b : mac.bytes()) key = key << 8 | b;
  return key;
}

/// Sorts by `count` descending, then MAC ascending: a total order, so the
/// ranking does not depend on the order stations were first seen.
void rank_by(std::vector<Suspect>& out, std::uint64_t Suspect::*count) {
  std::sort(out.begin(), out.end(),
            [count](const Suspect& a, const Suspect& b) {
              if (a.*count != b.*count) return a.*count > b.*count;
              return a.mac < b.mac;
            });
}

}  // namespace

void SourceLocator::on_packet(util::SimTime at, const net::Packet& packet) {
  if (classify::classify_packet(packet) != classify::SegmentKind::kSyn) {
    return;
  }
  Suspect& entry = station(packet.eth.src, at);
  entry.last_seen = at;
  ++entry.total_syns;
  if (!stub_prefix_.contains(packet.ip.src)) {
    ++entry.spoofed_syns;
    ++spoofed_total_;
  }
}

std::size_t SourceLocator::home_slot(const net::MacAddress& mac) const {
  // Fibonacci hashing: the product's top bits depend on every bit of the
  // MAC, so MACs that differ only in their low bits still spread out.
  const int bits = std::countr_zero(index_.size());
  return static_cast<std::size_t>((pack(mac) * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - bits));
}

Suspect& SourceLocator::station(const net::MacAddress& mac,
                                util::SimTime at) {
  if (index_.empty()) rehash(kMinSlots);
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home_slot(mac);
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    Suspect& seen = stations_[index_[slot] - 1];
    if (seen.mac == mac) return seen;
  }
  stations_.push_back(Suspect{mac, 0, 0, at, at});  // syndog-lint: allow(hotpath.allocation) -- first SYN from a new station; capacity doubles
  index_[slot] = static_cast<std::uint32_t>(stations_.size());
  if (2 * stations_.size() > index_.size()) rehash(2 * index_.size());
  return stations_.back();
}

void SourceLocator::rehash(std::size_t slots) {
  // Load <= 1/2 keeps every position + 1 below 2^32.
  if (slots > std::uint64_t{1} << 32) {
    throw std::length_error("SourceLocator: more than 2^31 stations");
  }
  index_.clear();
  index_.resize(slots, 0);  // syndog-lint: allow(hotpath.allocation) -- rehash: only when the station count doubles
  const std::size_t mask = slots - 1;
  for (std::size_t pos = 0; pos < stations_.size(); ++pos) {
    std::size_t slot = home_slot(stations_[pos].mac);
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = static_cast<std::uint32_t>(pos + 1);
  }
}

std::vector<Suspect> SourceLocator::suspects() const {
  std::vector<Suspect> out;
  for (const Suspect& s : stations_) {
    if (s.spoofed_syns > 0) out.push_back(s);  // syndog-lint: allow(hotpath.allocation) -- alarm-time ranking copy
  }
  rank_by(out, &Suspect::spoofed_syns);
  return out;
}

std::vector<Suspect> SourceLocator::stations() const {
  std::vector<Suspect> out = stations_;
  rank_by(out, &Suspect::total_syns);
  return out;
}

void SourceLocator::reset() {
  stations_.clear();
  index_.clear();
  spoofed_total_ = 0;
}

}  // namespace syndog::core
