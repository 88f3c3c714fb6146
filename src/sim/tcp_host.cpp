#include "syndog/sim/tcp_host.hpp"

#include <stdexcept>

#include "syndog/net/handshake.hpp"

namespace syndog::sim {

TcpHost::TcpHost(net::Ipv4Address ip, net::MacAddress mac,
                 net::MacAddress gateway_mac, Scheduler& scheduler,
                 PacketSink send, TcpHostParams params, std::uint64_t seed)
    : ip_(ip), mac_(mac), gateway_mac_(gateway_mac),
      scheduler_(scheduler), send_(std::move(send)), params_(params),
      rng_(seed),
      cookies_(util::splitmix64(seed ^ 0x53594e636f6f6bULL)) {
  if (!send_) throw std::invalid_argument("TcpHost: send callback required");
  if (params_.backlog == 0) {
    throw std::invalid_argument("TcpHost: backlog must be at least 1");
  }
}

TcpHost::PeerKey TcpHost::key_of(net::Ipv4Address peer_ip,
                                 std::uint16_t peer_port,
                                 std::uint16_t local_port) {
  return PeerKey{(std::uint64_t{peer_ip.value()} << 32) |
                 (std::uint64_t{peer_port} << 16) | local_port};
}

void TcpHost::listen(std::uint16_t port) { listening_[port] = true; }

void TcpHost::send_tcp(net::Ipv4Address dst_ip, std::uint16_t src_port,
                       std::uint16_t dst_port, net::TcpFlags flags,
                       std::uint32_t seq, std::uint32_t ack) {
  net::TcpPacketSpec spec;
  spec.src_mac = mac_;
  spec.dst_mac = gateway_mac_;
  spec.src_ip = ip_;
  spec.dst_ip = dst_ip;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  spec.flags = flags;
  spec.seq = seq;
  spec.ack = ack;
  send_(net::make_tcp_packet(spec));
}

void TcpHost::connect(net::Ipv4Address dst_ip, std::uint16_t dst_port) {
  const std::uint16_t src_port = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535
                        ? static_cast<std::uint16_t>(32768)
                        : static_cast<std::uint16_t>(next_ephemeral_ + 1);

  Connecting conn;
  conn.our_isn = rng_.next_u32();
  conn.dst_ip = dst_ip;
  conn.dst_port = dst_port;
  conn.src_port = src_port;
  const PeerKey key = key_of(dst_ip, dst_port, src_port);

  ++stats_.syns_sent;
  send_tcp(dst_ip, src_port, dst_port, net::TcpFlags::syn_only(),
           conn.our_isn, 0);
  conn.retx_event = scheduler_.schedule_after(
      net::handshake_rto(0), [this, key] { retransmit_syn(key); });
  connecting_[key] = conn;
}

void TcpHost::retransmit_syn(PeerKey key) {
  const auto it = connecting_.find(key);
  if (it == connecting_.end()) return;
  Connecting& conn = it->second;
  if (conn.retransmissions >= net::kHandshakeRetransmissions) {
    ++stats_.connect_failures;
    connecting_.erase(it);
    return;
  }
  ++conn.retransmissions;
  ++stats_.syns_sent;
  send_tcp(conn.dst_ip, conn.src_port, conn.dst_port,
           net::TcpFlags::syn_only(), conn.our_isn, 0);
  conn.retx_event =
      scheduler_.schedule_after(net::handshake_rto(conn.retransmissions),
                                [this, key] { retransmit_syn(key); });
}

void TcpHost::receive(const net::Packet& packet) {
  if (!packet.tcp || packet.ip.dst != ip_) return;
  const net::TcpFlags flags = packet.tcp->flags;
  if (flags.syn() && !flags.ack()) {
    on_syn(packet);
  } else if (flags.syn() && flags.ack()) {
    on_syn_ack(packet);
  } else if (flags.rst()) {
    on_rst(packet);
  } else if (flags.fin()) {
    on_fin(packet);
  } else if (flags.ack()) {
    on_ack(packet);
  }
}

void TcpHost::on_syn(const net::Packet& packet) {
  ++stats_.syns_received;
  const std::uint16_t port = packet.tcp->dst_port;
  if (!listening_.contains(port)) {
    // Closed port: RFC 793 answers with RST.
    ++stats_.rsts_sent;
    send_rst_for(packet);
    return;
  }
  const PeerKey key = key_of(packet.ip.src, packet.tcp->src_port, port);
  if (const auto it = half_open_.find(key); it != half_open_.end()) {
    // Duplicate SYN (client retransmission): re-send our SYN/ACK without
    // consuming another backlog slot.
    ++stats_.syn_acks_sent;
    send_tcp(packet.ip.src, port, packet.tcp->src_port,
             net::TcpFlags::syn_ack(), it->second.our_isn,
             packet.tcp->seq + 1);
    return;
  }
  update_cookie_mode();
  if (cookie_active_) {
    // Stateless handshake: the cookie ISN carries everything needed to
    // reconstruct the connection from the final ACK, so no backlog slot
    // is consumed and no retransmission timer runs.
    const std::uint32_t isn = cookies_.make(
        ConnKey{packet.ip.src, packet.tcp->src_port, port}, packet.tcp->seq,
        SynCookieCodec::counter_at(scheduler_.now()));
    ++stats_.syn_acks_sent;
    ++stats_.syn_cookies_sent;
    send_tcp(packet.ip.src, port, packet.tcp->src_port,
             net::TcpFlags::syn_ack(), isn, packet.tcp->seq + 1);
    return;
  }
  if (backlog_full()) {
    // The SYN-flood failure mode: silently drop the request.
    ++stats_.backlog_drops;
    return;
  }

  HalfOpen half;
  half.our_isn = rng_.next_u32();
  half.peer_ip = packet.ip.src;
  half.peer_port = packet.tcp->src_port;
  half.local_port = port;
  half.timeout_event = scheduler_.schedule_after(
      params_.half_open_timeout, [this, key] {
        const auto entry = half_open_.find(key);
        if (entry != half_open_.end()) {
          scheduler_.cancel(entry->second.retx_event);
          half_open_.erase(entry);
          ++stats_.half_open_timeouts;
        }
      });
  half.retx_event = scheduler_.schedule_after(
      net::handshake_rto(0), [this, key] { retransmit_syn_ack(key); });
  half_open_[key] = half;
  ++stats_.syn_acks_sent;
  send_tcp(packet.ip.src, port, packet.tcp->src_port,
           net::TcpFlags::syn_ack(), half.our_isn, packet.tcp->seq + 1);
}

void TcpHost::retransmit_syn_ack(PeerKey key) {
  const auto it = half_open_.find(key);
  if (it == half_open_.end()) return;
  HalfOpen& half = it->second;
  if (half.retransmissions >= net::kHandshakeRetransmissions) return;
  ++half.retransmissions;
  ++stats_.syn_acks_sent;
  send_tcp(half.peer_ip, half.local_port, half.peer_port,
           net::TcpFlags::syn_ack(), half.our_isn, 0);
  half.retx_event =
      scheduler_.schedule_after(net::handshake_rto(half.retransmissions),
                                [this, key] { retransmit_syn_ack(key); });
}

void TcpHost::on_syn_ack(const net::Packet& packet) {
  ++stats_.syn_acks_received;
  const PeerKey key =
      key_of(packet.ip.src, packet.tcp->src_port, packet.tcp->dst_port);
  const auto it = connecting_.find(key);
  if (it == connecting_.end()) {
    // Unexpected SYN/ACK — e.g. we were used as a spoofed source. Reset
    // the half-open connection at the sender (paper §1).
    ++stats_.rsts_sent;
    send_rst_for(packet);
    return;
  }
  const Connecting conn = it->second;
  scheduler_.cancel(conn.retx_event);
  connecting_.erase(it);
  ++stats_.established_as_client;
  send_tcp(conn.dst_ip, conn.src_port, conn.dst_port,
           net::TcpFlags::ack_only(), conn.our_isn + 1,
           packet.tcp->seq + 1);
  established_[key] =
      Established{conn.dst_ip, conn.dst_port, conn.src_port, false, false};
  if (params_.auto_close_after > util::SimTime::zero()) {
    scheduler_.schedule_after(
        params_.auto_close_after,
        [this, ip = conn.dst_ip, pport = conn.dst_port,
         lport = conn.src_port] { close(ip, pport, lport); });
  }
}

void TcpHost::on_ack(const net::Packet& packet) {
  const PeerKey key =
      key_of(packet.ip.src, packet.tcp->src_port, packet.tcp->dst_port);
  // The final ACK of a passive close (LAST_ACK -> CLOSED).
  if (const auto est = established_.find(key); est != established_.end()) {
    if (est->second.fin_sent && est->second.fin_received) {
      established_.erase(est);
      ++stats_.closed_gracefully;
      return;
    }
  }
  const auto it = half_open_.find(key);
  if (it == half_open_.end()) {
    // No SYN_RCVD state: either a data/late ACK, or the third leg of a
    // stateless cookie handshake.
    maybe_accept_cookie(packet, key);
    return;
  }
  if (packet.tcp->ack != it->second.our_isn + 1) return;  // wrong ack no.
  scheduler_.cancel(it->second.timeout_event);
  scheduler_.cancel(it->second.retx_event);
  half_open_.erase(it);
  ++stats_.established_as_server;
  established_[key] = Established{packet.ip.src, packet.tcp->src_port,
                                  packet.tcp->dst_port, false, false};
}

void TcpHost::update_cookie_mode() {
  if (!params_.syn_cookies) return;
  const double fill = static_cast<double>(half_open_.size()) /
                      static_cast<double>(params_.backlog);
  if (!cookie_active_ && fill >= kCookieHighWater) {
    cookie_active_ = true;
    ++stats_.cookie_engagements;
  } else if (cookie_active_ && fill <= kCookieLowWater) {
    cookie_active_ = false;
  }
}

void TcpHost::maybe_accept_cookie(const net::Packet& packet, PeerKey key) {
  if (!params_.syn_cookies) return;
  if (!listening_.contains(packet.tcp->dst_port)) return;
  if (established_.contains(key)) return;  // ordinary in-connection ACK
  const bool valid = cookies_.verify(
      ConnKey{packet.ip.src, packet.tcp->src_port, packet.tcp->dst_port},
      packet.tcp->seq - 1, packet.tcp->ack - 1,
      SynCookieCodec::counter_at(scheduler_.now()));
  if (!valid) {
    ++stats_.syn_cookies_rejected;
    return;
  }
  ++stats_.syn_cookies_validated;
  ++stats_.established_as_server;
  established_[key] = Established{packet.ip.src, packet.tcp->src_port,
                                  packet.tcp->dst_port, false, false};
}

void TcpHost::on_rst(const net::Packet& packet) {
  ++stats_.rsts_received;
  const PeerKey key =
      key_of(packet.ip.src, packet.tcp->src_port, packet.tcp->dst_port);
  if (const auto it = half_open_.find(key); it != half_open_.end()) {
    scheduler_.cancel(it->second.timeout_event);
    scheduler_.cancel(it->second.retx_event);
    half_open_.erase(it);
  }
  if (const auto it = connecting_.find(key); it != connecting_.end()) {
    scheduler_.cancel(it->second.retx_event);
    ++stats_.connect_failures;
    connecting_.erase(it);
  }
  established_.erase(key);
}

void TcpHost::close(net::Ipv4Address peer_ip, std::uint16_t peer_port,
                    std::uint16_t local_port) {
  const PeerKey key = key_of(peer_ip, peer_port, local_port);
  const auto it = established_.find(key);
  if (it == established_.end() || it->second.fin_sent) return;
  it->second.fin_sent = true;
  ++stats_.fins_sent;
  send_tcp(peer_ip, local_port, peer_port, net::TcpFlags::fin_ack(), 0, 0);
}

void TcpHost::on_fin(const net::Packet& packet) {
  ++stats_.fins_received;
  const PeerKey key =
      key_of(packet.ip.src, packet.tcp->src_port, packet.tcp->dst_port);
  const auto it = established_.find(key);
  if (it == established_.end()) {
    // FIN for a connection we no longer know: acknowledge and move on.
    send_tcp(packet.ip.src, packet.tcp->dst_port, packet.tcp->src_port,
             net::TcpFlags::ack_only(), packet.tcp->ack,
             packet.tcp->seq + 1);
    return;
  }
  it->second.fin_received = true;
  send_tcp(packet.ip.src, packet.tcp->dst_port, packet.tcp->src_port,
           net::TcpFlags::ack_only(), packet.tcp->ack,
           packet.tcp->seq + 1);
  if (!it->second.fin_sent) {
    // Passive close (Fig. 1's CLOSE_WAIT -> LAST_ACK): reciprocate.
    it->second.fin_sent = true;
    ++stats_.fins_sent;
    send_tcp(packet.ip.src, packet.tcp->dst_port, packet.tcp->src_port,
             net::TcpFlags::fin_ack(), 0, packet.tcp->seq + 1);
  } else {
    // We initiated and the peer's FIN completes the exchange
    // (FIN_WAIT -> TIME_WAIT, modeled as immediate close).
    established_.erase(it);
    ++stats_.closed_gracefully;
  }
}

void TcpHost::send_rst_for(const net::Packet& packet) {
  net::TcpFlags rst = net::TcpFlags::rst_only();
  send_tcp(packet.ip.src, packet.tcp->dst_port, packet.tcp->src_port, rst,
           packet.tcp->ack, packet.tcp->seq + 1);
}

}  // namespace syndog::sim
