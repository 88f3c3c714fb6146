// Rendering a logical trace as timestamped packets.
//
// ConnectionTrace records only what the detector needs (SYN/SYN-ACK times
// and directions); this module expands it into full Ethernet/IPv4/TCP
// packets — addresses, ports, sequence numbers, final ACKs — so the same
// workload can be written to pcap, replayed through the simulator, or fed
// to the frame-level classifier. The expansion is deterministic in the
// seed.
#pragma once

#include <cstdint>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/trace/handshake.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::trace {

struct TimedPacket {
  util::SimTime at;
  net::Packet packet;
};

struct RenderConfig {
  /// Addresses of hosts inside the stub network (hosts 1-250).
  net::Ipv4Prefix stub_prefix =
      *net::Ipv4Prefix::parse("10.1.0.0/16");
  /// Addresses representing the rest of the Internet (hosts 1-4096).
  net::Ipv4Prefix internet_prefix =
      *net::Ipv4Prefix::parse("128.0.0.0/8");
  /// MAC of the leaf router's intranet-facing interface. Frames leaving
  /// the stub carry (host MAC -> router MAC); frames entering carry
  /// (router MAC -> host MAC) — what a tap at the leaf router captures.
  net::MacAddress router_mac = net::MacAddress::for_host(0xffffff);
  std::uint64_t seed = 1;
  /// Emit the client's final handshake ACK (one RTT/2 after the SYN/ACK).
  bool emit_final_ack = true;
};

/// Expands a background trace into a time-sorted packet sequence.
[[nodiscard]] std::vector<TimedPacket> render_trace(
    const ConnectionTrace& trace, const RenderConfig& config);

/// Renders attack SYNs: spoofed source addresses drawn from the given
/// pool prefix (unreachable space), fixed victim, source MACs of the
/// `attacker_hosts` compromised stub machines. Times must be sorted.
struct AttackRenderConfig {
  net::Ipv4Prefix spoof_pool = *net::Ipv4Prefix::parse("240.0.0.0/8");
  net::Ipv4Address victim{198, 51, 100, 10};
  std::uint16_t victim_port = 80;
  std::vector<std::uint32_t> attacker_hosts = {7};  ///< stub host indices
  net::MacAddress router_mac = net::MacAddress::for_host(0xffffff);
  std::uint64_t seed = 99;
};

[[nodiscard]] std::vector<TimedPacket> render_attack(
    const std::vector<util::SimTime>& syn_times,
    const AttackRenderConfig& config);

/// Merges packet sequences into one time-sorted sequence.
[[nodiscard]] std::vector<TimedPacket> merge_packets(
    std::vector<TimedPacket> a, std::vector<TimedPacket> b);

}  // namespace syndog::trace
