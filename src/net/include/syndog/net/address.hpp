// Link- and network-layer address value types.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace syndog::net {

/// 48-bit IEEE MAC address. SYN-dog's source locator reports flooding hosts
/// by MAC because their IP source addresses are spoofed (paper §4.2.3).
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> bytes)
      : bytes_(bytes) {}

  /// Parses "aa:bb:cc:dd:ee:ff" (case-insensitive); nullopt on bad input.
  [[nodiscard]] static std::optional<MacAddress> parse(std::string_view text);
  /// Deterministic MAC for simulated host `index` (locally administered).
  [[nodiscard]] static MacAddress for_host(std::uint32_t index);

  [[nodiscard]] constexpr const std::array<std::uint8_t, 6>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] constexpr bool is_broadcast() const {
    for (std::uint8_t b : bytes_) {
      if (b != 0xff) return false;
    }
    return true;
  }

  constexpr auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> bytes_{};
};

/// IPv4 address stored in host order; to_string/parse use dotted decimal.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  [[nodiscard]] static std::optional<Ipv4Address> parse(
      std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// CIDR prefix; classifier rules and stub-network membership tests use it.
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;
  /// Canonicalizes: host bits below the prefix length are cleared.
  Ipv4Prefix(Ipv4Address base, int length);

  /// Parses "10.1.0.0/16"; nullopt on bad address or length outside [0,32].
  [[nodiscard]] static std::optional<Ipv4Prefix> parse(std::string_view text);

  [[nodiscard]] constexpr Ipv4Address base() const { return base_; }
  [[nodiscard]] constexpr int length() const { return length_; }
  [[nodiscard]] std::uint32_t mask() const;
  [[nodiscard]] bool contains(Ipv4Address addr) const;
  /// The `offset`-th host address inside the prefix (offset 0 = base).
  [[nodiscard]] Ipv4Address host(std::uint32_t offset) const;
  /// Number of addresses covered, 2^(32-length): 2^32 at length 0, which
  /// is why it is 64 bits wide.
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Prefix&) const = default;

 private:
  Ipv4Address base_{};
  int length_ = 0;
};

}  // namespace syndog::net
