// Point-to-point link model.
//
// Unidirectional channel with propagation delay, optional serialization
// (bandwidth) delay, random loss, and a bounded transmit queue. Losses on
// the SYN forwarding path are one of the paper's two sources of
// SYN–SYN/ACK discrepancy; the loss knob reproduces it in the DES.
//
// A LinkChaos perturber (src/fault) can additionally be attached to model
// degraded-network conditions: link flaps, burst loss, duplication, and
// bounded delay jitter/reordering. The perturber owns its own Rng, so the
// link's base loss stream — and therefore every unfaulted run — is
// byte-identical whether or not the fault layer is linked in.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <cstdint>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {

struct LinkParams {
  util::SimTime delay = util::SimTime::milliseconds(10);
  /// Bits per second; 0 disables serialization delay.
  double bandwidth_bps = 0.0;
  double loss_probability = 0.0;
  /// Max packets in flight/queued before tail drop; 0 = unbounded.
  std::size_t queue_limit = 0;
};

/// Fault-injection seam. When attached via Link::set_chaos, every send()
/// is inspected before the base loss/queue model runs; the verdict can
/// drop the packet (link down / burst loss), duplicate it, or perturb its
/// delivery time (jitter, which with a large enough bound reorders).
class LinkChaos {
 public:
  enum class Drop : std::uint8_t {
    kNone,      ///< deliver normally
    kLinkDown,  ///< the link is flapped down; counted separately
    kLoss,      ///< injected (burst) loss on top of the base model
  };

  struct Verdict {
    Drop drop = Drop::kNone;
    /// Additional copies to deliver (packet duplication).
    std::uint32_t extra_copies = 0;
    /// Extra delivery delay for the packet and its copies (jitter; a bound
    /// larger than the inter-packet spacing produces bounded reordering).
    util::SimTime extra_delay = util::SimTime::zero();
    /// Spacing between successive duplicate copies.
    util::SimTime copy_spacing = util::SimTime::microseconds(50);
  };

  virtual ~LinkChaos() = default;
  virtual Verdict inspect(util::SimTime now, const net::Packet& packet) = 0;
};

class Link {
 public:
  using Deliver = PacketSink;

  Link(Scheduler& scheduler, LinkParams params, Deliver deliver,
       std::uint64_t seed);

  /// Queues a packet for transmission; may drop (loss or full queue).
  void send(const net::Packet& packet);

  /// Attaches (nullptr: detaches) the fault-injection perturber, which
  /// must outlive the link. Without one the send path is unchanged.
  void set_chaos(LinkChaos* chaos) { chaos_ = chaos; }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t dropped_queue_full() const {
    return dropped_queue_full_;
  }
  /// Drops while a fault held the link down (flap).
  [[nodiscard]] std::uint64_t dropped_link_down() const {
    return dropped_link_down_;
  }
  /// Drops from injected burst loss (on top of the base loss model).
  [[nodiscard]] std::uint64_t dropped_chaos_loss() const {
    return dropped_chaos_loss_;
  }
  /// Extra copies delivered by duplication faults.
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  /// Packets whose delivery time was perturbed by jitter/reorder faults.
  [[nodiscard]] std::uint64_t delayed() const { return delayed_; }

 private:
  void schedule_delivery(util::SimTime at, net::Packet packet);

  Scheduler& scheduler_;
  LinkParams params_;
  Deliver deliver_;
  util::Rng rng_;
  LinkChaos* chaos_ = nullptr;
  /// Time the transmitter becomes free (serialization model).
  util::SimTime tx_free_at_;
  std::size_t in_flight_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t dropped_queue_full_ = 0;
  std::uint64_t dropped_link_down_ = 0;
  std::uint64_t dropped_chaos_loss_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace syndog::sim
