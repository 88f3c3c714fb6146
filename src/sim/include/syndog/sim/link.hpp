// Point-to-point link model: a unidirectional delay line.
//
// Every packet sent arrives `delay` later. The paper's two sources of
// SYN–SYN/ACK discrepancy (servers dropping SYNs, SYNs lost on the
// forwarding path) both look like "this transmission drew no SYN/ACK"
// from the leaf router, so path loss reaches the DES through the
// responder's `no_answer_probability` (sim::ResponderParams), not
// through the link.
//
// A LinkChaos perturber (src/fault) can be attached to model degraded
// network conditions: link flaps, burst loss, duplication, and bounded
// delay jitter/reordering. The perturber owns its own Rng, so every
// unfaulted run is byte-identical whether or not the fault layer is
// linked in.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <cstdint>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/scheduler.hpp"

namespace syndog::sim {

/// Fault-injection seam. When attached via Link::set_chaos, every send()
/// is inspected first; the verdict can drop the packet (link down /
/// burst loss), duplicate it, or perturb its delivery time (jitter,
/// which with a large enough bound reorders).
class LinkChaos {
 public:
  enum class Drop : std::uint8_t {
    kNone,      ///< deliver normally
    kLinkDown,  ///< the link is flapped down; counted separately
    kLoss,      ///< injected (burst) loss
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

  Link(Scheduler& scheduler, util::SimTime delay, Deliver deliver);

  /// Delivers `packet` `delay` from now, unless an attached perturber
  /// drops it.
  void send(const net::Packet& packet);

  /// Attaches (nullptr: detaches) the fault-injection perturber, which
  /// must outlive the link. Without one the send path is unchanged.
  void set_chaos(LinkChaos* chaos) { chaos_ = chaos; }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// Drops while a fault held the link down (flap).
  [[nodiscard]] std::uint64_t dropped_link_down() const {
    return dropped_link_down_;
  }
  /// Drops from injected burst loss.
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
  util::SimTime delay_;
  Deliver deliver_;
  LinkChaos* chaos_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_link_down_ = 0;
  std::uint64_t dropped_chaos_loss_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace syndog::sim
