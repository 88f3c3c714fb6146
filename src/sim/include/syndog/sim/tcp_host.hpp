// Endpoint TCP mini-stack.
//
// Implements exactly the slice of TCP that SYN flooding exploits and
// SYN-dog observes: the three-way handshake with a finite backlog of
// half-open connections (RFC 793 SYN_RCVD state), client SYN
// retransmission with exponential backoff, the ~75 s half-open lifetime
// the paper cites, and RST semantics — including the rule that a host
// receiving an unexpected SYN/ACK answers with RST, which is why attackers
// must spoof *unreachable* sources.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/victim_defense.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {

/// SYN-cookie hysteresis, as fractions of the backlog: a server with
/// TcpHostParams::syn_cookies answers statelessly once its half-open
/// queue fills to kCookieHighWater and reverts to stateful handshakes at
/// kCookieLowWater. The band keeps a bursty-but-benign queue from
/// flapping the mode every packet.
inline constexpr double kCookieHighWater = 0.75;
inline constexpr double kCookieLowWater = 0.25;

/// Client SYNs and server SYN/ACKs are retransmitted on the one schedule
/// in net/handshake.hpp (two retransmissions, 3 s then 6 s).
struct TcpHostParams {
  /// Listen-queue capacity for half-open connections (per host, shared
  /// across ports — the resource SYN floods exhaust).
  std::size_t backlog = 128;
  /// Half-open lifetime at the server before the slot is reclaimed
  /// (paper: "not closed until the failure of two retransmissions, which
  /// typically lasts for 75 seconds").
  util::SimTime half_open_timeout = util::SimTime::seconds(75);
  /// When nonzero, the client side closes each connection this long
  /// after it establishes (generates the Fig. 1 teardown traffic in live
  /// simulations). Zero = connections persist.
  util::SimTime auto_close_after = util::SimTime::zero();
  /// Stateless SYN-cookie fallback (the victim-side countermeasure the
  /// paper's §4.2.3 response would trigger). When enabled, the server
  /// answers SYNs with a keyed cookie ISN — no backlog slot — between the
  /// kCookieHighWater and kCookieLowWater edges above.
  bool syn_cookies = false;
};

struct TcpHostStats {
  std::uint64_t syns_sent = 0;
  std::uint64_t syns_received = 0;
  std::uint64_t syn_acks_sent = 0;
  std::uint64_t syn_acks_received = 0;
  std::uint64_t established_as_client = 0;
  std::uint64_t established_as_server = 0;
  std::uint64_t backlog_drops = 0;       ///< SYNs dropped: backlog full
  std::uint64_t half_open_timeouts = 0;  ///< slots reclaimed by timer
  std::uint64_t rsts_sent = 0;
  std::uint64_t rsts_received = 0;
  std::uint64_t connect_failures = 0;    ///< client gave up after retx
  std::uint64_t fins_sent = 0;
  std::uint64_t fins_received = 0;
  std::uint64_t closed_gracefully = 0;   ///< full FIN/ACK exchanges
  std::uint64_t syn_cookies_sent = 0;    ///< stateless SYN/ACKs (cookie ISN)
  std::uint64_t syn_cookies_validated = 0;  ///< handshake ACKs that decoded
  std::uint64_t syn_cookies_rejected = 0;   ///< stray/forged handshake ACKs
  std::uint64_t cookie_engagements = 0;  ///< times cookie mode switched on
};

/// A simulated end host with client and server roles.
class TcpHost {
 public:
  /// `send` hands a fully formed frame to the attached network (LAN side
  /// of the leaf router). `gateway_mac` is the router's MAC, used as the
  /// L2 destination of every frame the host emits.
  TcpHost(net::Ipv4Address ip, net::MacAddress mac,
          net::MacAddress gateway_mac, Scheduler& scheduler,
          PacketSink send, TcpHostParams params, std::uint64_t seed);

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  /// Starts accepting connections on `port`.
  void listen(std::uint16_t port);
  /// Initiates an active open; the source port is chosen automatically.
  void connect(net::Ipv4Address dst_ip, std::uint16_t dst_port);
  /// Active close of an established connection (paper Fig. 1's teardown
  /// half): sends FIN|ACK; the peer's FIN in response is ACKed and the
  /// connection forgotten. No-op for unknown connections.
  void close(net::Ipv4Address peer_ip, std::uint16_t peer_port,
             std::uint16_t local_port);
  /// Delivers a frame from the network to this host.
  void receive(const net::Packet& packet);

  /// Currently established connections this host knows about.
  [[nodiscard]] std::size_t established_count() const {
    return established_.size();
  }

  [[nodiscard]] const TcpHostStats& stats() const { return stats_; }
  [[nodiscard]] net::Ipv4Address ip() const { return ip_; }
  [[nodiscard]] net::MacAddress mac() const { return mac_; }
  /// Current number of half-open (SYN_RCVD) connections.
  [[nodiscard]] std::size_t half_open_count() const {
    return half_open_.size();
  }
  [[nodiscard]] bool backlog_full() const {
    return half_open_.size() >= params_.backlog;
  }
  /// True while the server answers SYNs statelessly (cookie ISNs).
  [[nodiscard]] bool cookie_mode_active() const { return cookie_active_; }

 private:
  struct PeerKey {
    std::uint64_t v;
    bool operator==(const PeerKey&) const = default;
  };
  struct PeerKeyHash {
    std::size_t operator()(const PeerKey& k) const {
      return std::hash<std::uint64_t>{}(k.v);
    }
  };
  static PeerKey key_of(net::Ipv4Address peer_ip, std::uint16_t peer_port,
                        std::uint16_t local_port);

  struct HalfOpen {
    std::uint32_t our_isn = 0;
    net::Ipv4Address peer_ip;
    std::uint16_t peer_port = 0;
    std::uint16_t local_port = 0;
    int retransmissions = 0;
    EventId timeout_event = 0;
    EventId retx_event = 0;
  };
  struct Connecting {
    std::uint32_t our_isn = 0;
    net::Ipv4Address dst_ip;
    std::uint16_t dst_port = 0;
    std::uint16_t src_port = 0;
    int retransmissions = 0;
    EventId retx_event = 0;
  };

  struct Established {
    net::Ipv4Address peer_ip;
    std::uint16_t peer_port = 0;
    std::uint16_t local_port = 0;
    bool fin_sent = false;      ///< we sent our FIN
    bool fin_received = false;  ///< the peer's FIN arrived
  };

  void send_tcp(net::Ipv4Address dst_ip, std::uint16_t src_port,
                std::uint16_t dst_port, net::TcpFlags flags,
                std::uint32_t seq, std::uint32_t ack);
  void send_rst_for(const net::Packet& packet);
  void on_syn(const net::Packet& packet);
  void on_syn_ack(const net::Packet& packet);
  void on_ack(const net::Packet& packet);
  void on_rst(const net::Packet& packet);
  void on_fin(const net::Packet& packet);
  void retransmit_syn(PeerKey key);
  void retransmit_syn_ack(PeerKey key);
  void update_cookie_mode();
  void maybe_accept_cookie(const net::Packet& packet, PeerKey key);

  net::Ipv4Address ip_;
  net::MacAddress mac_;
  net::MacAddress gateway_mac_;
  Scheduler& scheduler_;
  PacketSink send_;
  TcpHostParams params_;
  util::Rng rng_;
  TcpHostStats stats_;

  std::unordered_map<std::uint16_t, bool> listening_;
  std::unordered_map<PeerKey, HalfOpen, PeerKeyHash> half_open_;
  std::unordered_map<PeerKey, Connecting, PeerKeyHash> connecting_;
  std::unordered_map<PeerKey, Established, PeerKeyHash> established_;
  std::uint16_t next_ephemeral_ = 32768;

  // SYN-cookie state. The secret is derived from the seed without
  // consuming the rng_ stream, so enabling cookies never shifts the ISN
  // draw order of the stateful path.
  SynCookieCodec cookies_;
  bool cookie_active_ = false;
};

}  // namespace syndog::sim
