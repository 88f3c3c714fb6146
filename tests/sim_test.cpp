#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "syndog/sim/cloud.hpp"
#include "syndog/sim/internet.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/stub_site.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {
namespace {

using util::SimTime;

// --- Scheduler --------------------------------------------------------------

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::seconds(3), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::seconds(3));
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime::seconds(1), [&order, i] {
      order.push_back(i);
    });
  }
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(SimTime::seconds(1), [&] { ++ran; });
  sched.schedule_at(SimTime::seconds(5), [&] { ++ran; });
  EXPECT_EQ(sched.run_until(SimTime::seconds(2)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.now(), SimTime::seconds(2));
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sched.schedule_after(SimTime::seconds(1), chain);
    }
  };
  sched.schedule_at(SimTime::seconds(1), chain);
  sched.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), SimTime::seconds(5));
}

TEST(SchedulerTest, CancelledEventsAreSkipped) {
  Scheduler sched;
  int ran = 0;
  const EventId id =
      sched.schedule_at(SimTime::seconds(1), [&] { ++ran; });
  sched.schedule_at(SimTime::seconds(2), [&] { ++ran; });
  sched.cancel(id);
  sched.cancel(9999);  // unknown id: no-op
  sched.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, RejectsPastScheduling) {
  Scheduler sched;
  sched.schedule_at(SimTime::seconds(5), [] {});
  sched.run_all();
  EXPECT_THROW(sched.schedule_at(SimTime::seconds(1), [] {}),
               std::invalid_argument);
}

TEST(SchedulerTest, CancellingExecutedIdIsANoOp) {
  Scheduler sched;
  obs::Registry registry;
  sched.attach_observer(&registry);
  int ran = 0;
  const EventId id = sched.schedule_at(SimTime::seconds(1), [&] { ++ran; });
  sched.schedule_at(SimTime::seconds(2), [&] { ++ran; });
  ASSERT_TRUE(sched.step());  // executes `id`
  EXPECT_EQ(ran, 1);
  // The old lazy-cancel design accepted any previously-issued id here:
  // pending() underflowed and the cancelled-set grew without bound.
  for (int i = 0; i < 100; ++i) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(registry.counter("sim.events_cancelled").value(), 0u);
  sched.run_all();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerTest, StaleIdCannotCancelRecycledSlot) {
  Scheduler sched;
  int ran = 0;
  const EventId a = sched.schedule_at(SimTime::seconds(1), [&] { ++ran; });
  sched.cancel(a);  // removes the heap entry and recycles the slot now
  // The next event reuses the slot; the generation tag in the old id must
  // keep it from touching the new occupant.
  const EventId b = sched.schedule_after(SimTime::seconds(1), [&] { ++ran; });
  EXPECT_NE(a, b);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, CancelReleasesCapturedPoolSlots) {
  Scheduler sched;
  auto h = sched.packets().acquire(net::Packet{});
  EXPECT_EQ(sched.packets().in_use(), 1u);
  const EventId id = sched.schedule_at(
      SimTime::seconds(1), [h = std::move(h)] { (void)*h; });
  sched.cancel(id);  // destroys the callback now, releasing the pool slot
  EXPECT_EQ(sched.packets().in_use(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerTest, ReservedStampFiresBeforeLaterEventsAtItsTime) {
  Scheduler sched;
  std::vector<int> order;
  const std::uint64_t stamp = sched.reserve(2);
  sched.schedule_at(SimTime::seconds(1), [&] { order.push_back(3); });
  sched.schedule_reserved(SimTime::seconds(1), stamp + 1,
                          [&] { order.push_back(2); });
  sched.schedule_reserved(SimTime::seconds(1), stamp,
                          [&] { order.push_back(1); });
  sched.schedule_at(SimTime::milliseconds(500), [&] { order.push_back(0); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerTest, RejectsStampsReserveHasNotHandedOut) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_reserved(SimTime::seconds(1), 0, [] {}),
               std::invalid_argument);
  EXPECT_THROW(sched.schedule_reserved(SimTime::seconds(1), 1, [] {}),
               std::invalid_argument);
  const std::uint64_t stamp = sched.reserve(3);
  EXPECT_THROW(sched.schedule_reserved(SimTime::seconds(1), stamp + 3, [] {}),
               std::invalid_argument);
  sched.schedule_reserved(SimTime::seconds(1), stamp + 2, [] {});
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(SchedulerTest, StampSupplyEndsAtTwoToTheForty) {
  constexpr std::uint64_t kStamps = std::uint64_t{1} << 40;
  Scheduler sched;
  // Stamps start at 1, so only 2^40 - 1 exist.
  EXPECT_THROW((void)sched.reserve(kStamps), std::overflow_error);
  EXPECT_EQ(sched.reserve(kStamps - 2), 1u);
  sched.schedule_at(SimTime::seconds(1), [] {});  // takes stamp 2^40 - 1
  EXPECT_THROW(sched.schedule_at(SimTime::seconds(1), [] {}),
               std::overflow_error);
  EXPECT_THROW((void)sched.reserve(1), std::overflow_error);
  EXPECT_EQ(sched.run_all(), 1u);
}

// --- Link -------------------------------------------------------------------

net::Packet small_packet() {
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  return net::make_syn(spec);
}

TEST(LinkTest, DeliversAfterDelay) {
  Scheduler sched;
  std::vector<SimTime> deliveries;
  Link link(sched, SimTime::milliseconds(25),
            [&](const net::Packet&) { deliveries.push_back(sched.now()); });
  link.send(small_packet());
  sched.run_all();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime::milliseconds(25));
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(LinkTest, ChaosVerdictsAreCounted) {
  Scheduler sched;
  int delivered = 0;
  Link link(sched, SimTime::milliseconds(1),
            [&](const net::Packet&) { ++delivered; });

  // Deterministic perturber cycling through every verdict kind.
  struct ScriptedChaos : LinkChaos {
    int n = 0;
    Verdict inspect(SimTime, const net::Packet&) override {
      Verdict v;
      switch (n++ % 4) {
        case 0: v.drop = Drop::kLinkDown; break;
        case 1: v.drop = Drop::kLoss; break;
        case 2: v.extra_copies = 1; break;
        default: v.extra_delay = SimTime::milliseconds(5); break;
      }
      return v;
    }
  } chaos;
  link.set_chaos(&chaos);
  for (int i = 0; i < 40; ++i) link.send(small_packet());
  sched.run_all();

  EXPECT_EQ(link.dropped_link_down(), 10u);
  EXPECT_EQ(link.dropped_chaos_loss(), 10u);
  EXPECT_EQ(link.duplicated(), 10u);
  EXPECT_EQ(link.delayed(), 10u);
  // 10 duplicated (x2) + 10 delayed deliveries; the rest dropped.
  EXPECT_EQ(link.delivered(), 30u);
  EXPECT_EQ(delivered, 30);
  EXPECT_EQ(link.sent(), 40u);

  // Detaching restores the unperturbed path.
  link.set_chaos(nullptr);
  for (int i = 0; i < 5; ++i) link.send(small_packet());
  sched.run_all();
  EXPECT_EQ(link.delivered(), 35u);
}

// --- TcpHost handshake ---------------------------------------------------------

struct HandshakePair {
  Scheduler sched;
  std::unique_ptr<TcpHost> client;
  std::unique_ptr<TcpHost> server;

  explicit HandshakePair(TcpHostParams params = {}) {
    // Direct 5 ms wire between the two hosts.
    client = std::make_unique<TcpHost>(
        net::Ipv4Address(10, 0, 0, 1),
        net::MacAddress::for_host(1), net::MacAddress::for_host(99), sched,
        [this](const net::Packet& pkt) {
          sched.schedule_after(
              SimTime::milliseconds(5),
              [this, h = sched.packets().acquire(pkt)] {
                server->receive(*h);
              });
        },
        params, 1);
    server = std::make_unique<TcpHost>(
        net::Ipv4Address(10, 0, 0, 2),
        net::MacAddress::for_host(2), net::MacAddress::for_host(99), sched,
        [this](const net::Packet& pkt) {
          sched.schedule_after(
              SimTime::milliseconds(5),
              [this, h = sched.packets().acquire(pkt)] {
                client->receive(*h);
              });
        },
        params, 2);
  }
};

TEST(TcpHostTest, ThreeWayHandshakeCompletes) {
  HandshakePair pair;
  pair.server->listen(80);
  pair.client->connect(pair.server->ip(), 80);
  pair.sched.run_all();
  EXPECT_EQ(pair.client->stats().established_as_client, 1u);
  EXPECT_EQ(pair.server->stats().established_as_server, 1u);
  EXPECT_EQ(pair.server->half_open_count(), 0u);
  EXPECT_EQ(pair.client->stats().syns_sent, 1u);
  EXPECT_EQ(pair.server->stats().syn_acks_sent, 1u);
}

TEST(TcpHostTest, SynToClosedPortGetsRst) {
  HandshakePair pair;
  pair.client->connect(pair.server->ip(), 8080);  // nobody listening
  pair.sched.run_all();
  EXPECT_EQ(pair.server->stats().rsts_sent, 1u);
  EXPECT_EQ(pair.client->stats().rsts_received, 1u);
  EXPECT_EQ(pair.client->stats().established_as_client, 0u);
  EXPECT_EQ(pair.client->stats().connect_failures, 1u);
}

TEST(TcpHostTest, BacklogFillsAndDropsSilently) {
  TcpHostParams params;
  params.backlog = 4;
  Scheduler sched;
  // Server whose replies go nowhere (spoofed flood: no final ACKs).
  TcpHost server(net::Ipv4Address(10, 0, 0, 2),
                 net::MacAddress::for_host(2),
                 net::MacAddress::for_host(99), sched,
                 [](const net::Packet&) {}, params, 3);
  server.listen(80);
  for (int i = 0; i < 10; ++i) {
    net::TcpPacketSpec spec;
    spec.src_ip = net::Ipv4Address{0xf0000000u + static_cast<std::uint32_t>(i)};
    spec.dst_ip = server.ip();
    spec.src_port = static_cast<std::uint16_t>(1024 + i);
    spec.dst_port = 80;
    server.receive(net::make_syn(spec));
  }
  EXPECT_EQ(server.half_open_count(), 4u);
  EXPECT_TRUE(server.backlog_full());
  EXPECT_EQ(server.stats().backlog_drops, 6u);
  // The half-open slots are reclaimed only after the 75 s timeout.
  sched.run_until(SimTime::seconds(74));
  EXPECT_EQ(server.half_open_count(), 4u);
  sched.run_until(SimTime::seconds(76));
  EXPECT_EQ(server.half_open_count(), 0u);
  EXPECT_EQ(server.stats().half_open_timeouts, 4u);
}

TEST(TcpHostTest, DuplicateSynDoesNotConsumeExtraBacklog) {
  TcpHostParams params;
  params.backlog = 4;
  Scheduler sched;
  TcpHost server(net::Ipv4Address(10, 0, 0, 2),
                 net::MacAddress::for_host(2),
                 net::MacAddress::for_host(99), sched,
                 [](const net::Packet&) {}, params, 3);
  server.listen(80);
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 0, 0, 1);
  spec.dst_ip = server.ip();
  spec.src_port = 1234;
  spec.dst_port = 80;
  server.receive(net::make_syn(spec));
  server.receive(net::make_syn(spec));  // retransmission
  EXPECT_EQ(server.half_open_count(), 1u);
  EXPECT_EQ(server.stats().syn_acks_sent, 2u);  // SYN/ACK re-sent
}

TEST(TcpHostTest, UnexpectedSynAckTriggersRst) {
  // Paper §1: an endhost receiving a SYN/ACK it never asked for sends RST,
  // which is why flood sources must spoof *unreachable* addresses.
  HandshakePair pair;
  net::TcpPacketSpec spec;
  spec.src_ip = pair.server->ip();
  spec.dst_ip = pair.client->ip();
  spec.src_port = 80;
  spec.dst_port = 5555;
  spec.flags = net::TcpFlags::syn_ack();
  pair.client->receive(net::make_tcp_packet(spec));
  EXPECT_EQ(pair.client->stats().rsts_sent, 1u);
}

TEST(TcpHostTest, RstClearsHalfOpenState) {
  HandshakePair pair;
  pair.server->listen(80);
  net::TcpPacketSpec spec;
  spec.src_ip = pair.client->ip();
  spec.dst_ip = pair.server->ip();
  spec.src_port = 4444;
  spec.dst_port = 80;
  pair.server->receive(net::make_syn(spec));
  EXPECT_EQ(pair.server->half_open_count(), 1u);
  spec.flags = net::TcpFlags::rst_only();
  pair.server->receive(net::make_tcp_packet(spec));
  EXPECT_EQ(pair.server->half_open_count(), 0u);
}

TEST(TcpHostTest, ClientGivesUpAfterRetransmissions) {
  Scheduler sched;
  // Client whose SYNs vanish.
  TcpHost client(net::Ipv4Address(10, 0, 0, 1),
                 net::MacAddress::for_host(1),
                 net::MacAddress::for_host(99), sched,
                 [](const net::Packet&) {}, TcpHostParams{}, 4);
  client.connect(net::Ipv4Address(192, 0, 2, 1), 80);
  sched.run_all();
  EXPECT_EQ(client.stats().syns_sent, 3u);  // initial + 2 retx
  EXPECT_EQ(client.stats().connect_failures, 1u);
}

// --- LeafRouter -------------------------------------------------------------------

TEST(RouterTest, TapsSeeCrossingTrafficOnly) {
  LeafRouter router(*net::Ipv4Prefix::parse("10.1.0.0/16"),
                    net::MacAddress::for_host(0xffffff));
  int outbound_tap = 0;
  int inbound_tap = 0;
  int uplinked = 0;
  int local_delivery = 0;
  router.add_outbound_tap(
      [&](SimTime, const net::Packet&) { ++outbound_tap; });
  router.add_inbound_tap(
      [&](SimTime, const net::Packet&) { ++inbound_tap; });
  router.set_uplink([&](const net::Packet&) { ++uplinked; });
  router.attach_host(net::Ipv4Address(10, 1, 0, 5),
                     [&](const net::Packet&) { ++local_delivery; });

  net::TcpPacketSpec out;
  out.src_ip = net::Ipv4Address(10, 1, 0, 5);
  out.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  router.forward_from_intranet(SimTime::zero(), net::make_syn(out));

  net::TcpPacketSpec local;
  local.src_ip = net::Ipv4Address(10, 1, 0, 5);
  local.dst_ip = net::Ipv4Address(10, 1, 0, 5);
  router.forward_from_intranet(SimTime::zero(), net::make_syn(local));

  net::TcpPacketSpec in;
  in.src_ip = net::Ipv4Address(192, 0, 2, 1);
  in.dst_ip = net::Ipv4Address(10, 1, 0, 5);
  router.forward_from_internet(SimTime::zero(), net::make_syn_ack(in));

  EXPECT_EQ(outbound_tap, 1);  // local-to-local never crosses
  EXPECT_EQ(inbound_tap, 1);
  EXPECT_EQ(uplinked, 1);
  EXPECT_EQ(local_delivery, 2);  // one local, one inbound
  EXPECT_EQ(router.stats().forwarded_outbound, 1u);
  EXPECT_EQ(router.stats().forwarded_inbound, 1u);
}

TEST(RouterTest, IngressFilterDropsSpoofedAndReportsViolation) {
  LeafRouter router(*net::Ipv4Prefix::parse("10.1.0.0/16"),
                    net::MacAddress::for_host(0xffffff));
  int uplinked = 0;
  router.set_uplink([&](const net::Packet&) { ++uplinked; });
  router.set_ingress_filtering(true);

  net::TcpPacketSpec spoofed;
  spoofed.src_mac = net::MacAddress::for_host(7);
  spoofed.src_ip = net::Ipv4Address(240, 0, 0, 1);  // not in the stub
  spoofed.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  router.forward_from_intranet(SimTime::zero(), net::make_syn(spoofed));

  net::TcpPacketSpec legit;
  legit.src_ip = net::Ipv4Address(10, 1, 0, 3);
  legit.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  router.forward_from_intranet(SimTime::zero(), net::make_syn(legit));

  EXPECT_EQ(uplinked, 1);
  EXPECT_EQ(router.stats().dropped_ingress_filter, 1u);
}

TEST(RouterTest, RejectsForeignHostAttachment) {
  LeafRouter router(*net::Ipv4Prefix::parse("10.1.0.0/16"),
                    net::MacAddress::for_host(0xffffff));
  EXPECT_THROW(
      router.attach_host(net::Ipv4Address(192, 0, 2, 1),
                         [](const net::Packet&) {}),
      std::invalid_argument);
}

// --- InternetCloud ------------------------------------------------------------------

TEST(CloudTest, AnswersSynsAndDropsUnreachable) {
  Scheduler sched;
  std::vector<net::Packet> replies;
  CloudParams params;
  params.no_answer_probability = 0.0;
  InternetCloud cloud(sched, params, 1);
  cloud.add_stub_route(
      *net::Ipv4Prefix::parse("10.1.0.0/16"),
      [&](const net::Packet& pkt) { replies.push_back(pkt); });

  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 3);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = 3333;
  spec.dst_port = 80;
  cloud.receive(net::make_syn(spec));

  net::TcpPacketSpec to_void = spec;
  to_void.dst_ip = net::Ipv4Address(240, 0, 0, 9);  // spoof pool
  cloud.receive(net::make_syn(to_void));

  sched.run_all();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].is_syn_ack());
  EXPECT_EQ(replies[0].ip.dst, spec.src_ip);
  EXPECT_EQ(replies[0].tcp->ack, spec.seq + 1);
  EXPECT_EQ(cloud.stats().dropped_unreachable, 1u);
}

TEST(CloudTest, CompletesInboundHandshakes) {
  Scheduler sched;
  std::vector<net::Packet> replies;
  InternetCloud cloud(sched, CloudParams{}, 2);
  cloud.add_stub_route(
      *net::Ipv4Prefix::parse("10.1.0.0/16"),
      [&](const net::Packet& pkt) { replies.push_back(pkt); });
  // A stub server's SYN/ACK heading to a generic remote client.
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 3);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 77);
  spec.src_port = 80;
  spec.dst_port = 50000;
  spec.seq = 1000;
  spec.ack = 501;
  cloud.receive(net::make_syn_ack(spec));
  sched.run_all();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].tcp->flags, net::TcpFlags::ack_only());
  EXPECT_EQ(replies[0].tcp->ack, 1001u);
}

TEST(CloudTest, SynAckFinGetsExactlyOneReply) {
  Scheduler sched;
  std::vector<net::Packet> replies;
  InternetCloud cloud(sched, CloudParams{}, 3);
  cloud.add_stub_route(
      *net::Ipv4Prefix::parse("10.1.0.0/16"),
      [&](const net::Packet& pkt) { replies.push_back(pkt); });
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 3);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 77);
  spec.src_port = 80;
  spec.dst_port = 50000;
  spec.seq = 1000;
  spec.ack = 501;
  spec.flags = net::TcpFlags{static_cast<std::uint8_t>(
      net::TcpFlags::syn_ack().bits | net::TcpFlags::kFin)};
  cloud.receive(net::make_tcp_packet(spec));
  sched.run_all();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].tcp->flags, net::TcpFlags::ack_only());
  EXPECT_EQ(replies[0].tcp->ack, 1001u);
}

TEST(CloudTest, RejectsBadResponderParametersAtConstruction) {
  Scheduler sched;
  CloudParams negative_rtt;
  negative_rtt.rtt_median_s = -0.01;
  CloudParams zero_rtt;
  zero_rtt.rtt_median_s = 0.0;
  CloudParams negative_sigma;
  negative_sigma.rtt_sigma = -1.0;
  for (const CloudParams& params : {negative_rtt, zero_rtt, negative_sigma}) {
    EXPECT_THROW(InternetCloud(sched, params, 1), std::invalid_argument);
  }
}

// --- Internet responder ------------------------------------------------------------

TEST(ResponderTest, AnswersEachSegmentKindWithOneReplyAtMost) {
  // Deterministic profile: every SYN is answered and the RTT is the
  // median with no draw, so a twin rng can replay the expected draws.
  ResponderParams params;
  params.no_answer_probability = 0.0;
  params.rtt_sigma = 0.0;
  const net::MacAddress client_mac = net::MacAddress::for_host(7);

  struct Row {
    std::string name;
    std::optional<net::TcpFlags> flags;  ///< nullopt: a UDP datagram
    std::optional<net::TcpFlags> reply;  ///< nullopt: absorbed
    std::uint64_t syns_seen = 0;
    std::uint64_t syn_acks_generated = 0;
    std::uint64_t absorbed_elsewhere = 0;
  };
  const auto with_fin = [](net::TcpFlags f) {
    return net::TcpFlags{
        static_cast<std::uint8_t>(f.bits | net::TcpFlags::kFin)};
  };
  const std::vector<Row> rows = {
      {"SYN", net::TcpFlags::syn_only(), net::TcpFlags::syn_ack(), 1, 1, 0},
      {"SYN|ACK", net::TcpFlags::syn_ack(), net::TcpFlags::ack_only(), 0, 0,
       0},
      {"SYN|ACK|FIN", with_fin(net::TcpFlags::syn_ack()),
       net::TcpFlags::ack_only(), 0, 0, 0},
      {"FIN", with_fin(net::TcpFlags{}), net::TcpFlags::fin_ack(), 0, 0, 0},
      {"FIN|ACK", net::TcpFlags::fin_ack(), net::TcpFlags::fin_ack(), 0, 0,
       0},
      {"ACK", net::TcpFlags::ack_only(), std::nullopt, 0, 0, 1},
      {"RST", net::TcpFlags::rst_only(), std::nullopt, 0, 0, 1},
      {"UDP", std::nullopt, std::nullopt, 0, 0, 1},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    util::Rng rng(42);
    util::Rng twin(42);
    ResponderStats stats;
    net::Packet segment;
    if (row.flags) {
      net::TcpPacketSpec spec;
      spec.src_mac = client_mac;
      spec.src_ip = net::Ipv4Address(10, 1, 0, 3);
      spec.dst_ip = net::Ipv4Address(192, 0, 2, 77);
      spec.src_port = 40000;
      spec.dst_port = 80;
      spec.seq = 1000;
      spec.ack = 501;
      spec.flags = *row.flags;
      segment = net::make_tcp_packet(spec);
    } else {
      segment = net::make_udp_packet(
          client_mac, net::MacAddress::for_host(1),
          net::Ipv4Address(10, 1, 0, 3), net::Ipv4Address(192, 0, 2, 77),
          40000, 53, 32);
    }

    const auto reply = answer_segment(segment, params, rng, stats);

    EXPECT_EQ(stats.syns_seen, row.syns_seen);
    EXPECT_EQ(stats.syn_acks_generated, row.syn_acks_generated);
    EXPECT_EQ(stats.unanswered, 0u);
    EXPECT_EQ(stats.dropped_unreachable, 0u);
    EXPECT_EQ(stats.absorbed_elsewhere, row.absorbed_elsewhere);
    ASSERT_EQ(reply.has_value(), row.reply.has_value());
    if (row.syns_seen > 0) (void)twin.bernoulli(0.0);  // the no-answer draw
    if (reply) {
      const net::Packet& out = reply->packet;
      EXPECT_EQ(out.tcp->flags, *row.reply);
      // A SYN/ACK carries a drawn ISN; every other reply continues the
      // stub side's sequence space at its ack number.
      const std::uint32_t seq =
          *row.reply == net::TcpFlags::syn_ack() ? twin.next_u32() : 501u;
      EXPECT_EQ(out.tcp->seq, seq);
      EXPECT_EQ(out.tcp->ack, 1001u);
      EXPECT_EQ(out.ip.src, segment.ip.dst);
      EXPECT_EQ(out.ip.dst, segment.ip.src);
      EXPECT_EQ(out.tcp->src_port, 80);
      EXPECT_EQ(out.tcp->dst_port, 40000);
      EXPECT_EQ(out.eth.src, internet_gateway_mac());
      EXPECT_EQ(out.eth.dst, client_mac);
      EXPECT_EQ(reply->rtt, SimTime::milliseconds(80));
    }
    // rtt_sigma == 0: no RTT draw, so the stream is where the twin is.
    EXPECT_EQ(rng.next_u32(), twin.next_u32());
  }
}

// --- StubNetworkSim end to end -----------------------------------------------------

TEST(StubNetworkTest, LiveHandshakesThroughRouterAndCloud) {
  StubNetworkParams params;
  params.num_hosts = 5;
  params.cloud.no_answer_probability = 0.0;
  StubNetworkSim sim(params);

  std::uint64_t out_tap = 0;
  std::uint64_t in_tap = 0;
  sim.router().add_outbound_tap(
      [&](SimTime, const net::Packet& pkt) { out_tap += pkt.is_syn(); });
  sim.router().add_inbound_tap(
      [&](SimTime, const net::Packet& pkt) { in_tap += pkt.is_syn_ack(); });

  std::vector<SimTime> starts;
  for (int i = 0; i < 20; ++i) {
    starts.push_back(SimTime::milliseconds(100 * (i + 1)));
  }
  sim.schedule_outbound_background(starts);
  sim.run_until(SimTime::seconds(30));

  EXPECT_EQ(out_tap, 20u);
  EXPECT_EQ(in_tap, 20u);
  std::uint64_t established = 0;
  for (std::uint32_t h = 1; h <= params.num_hosts; ++h) {
    established += sim.host(h).stats().established_as_client;
  }
  EXPECT_EQ(established, 20u);
}

TEST(StubNetworkTest, FloodAgainstRealVictimExhaustsBacklog) {
  StubNetworkParams params;
  params.num_hosts = 3;
  StubNetworkSim sim(params);
  TcpHostParams victim_params;
  victim_params.backlog = 64;
  TcpHost& victim = sim.add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params);
  victim.listen(80);

  std::vector<SimTime> flood;
  for (int i = 0; i < 500; ++i) {
    flood.push_back(SimTime::milliseconds(10 * i));
  }
  sim.launch_flood(2, flood, victim.ip(), 80,
                   *net::Ipv4Prefix::parse("240.0.0.0/8"));
  sim.run_until(SimTime::seconds(10));

  EXPECT_TRUE(victim.backlog_full());
  EXPECT_GT(victim.stats().backlog_drops, 300u);
  EXPECT_EQ(victim.stats().established_as_server, 0u);
  // Spoofed sources are unreachable: every SYN/ACK dies in the cloud.
  EXPECT_GT(sim.cloud().stats().dropped_unreachable, 0u);
}

TEST(StubNetworkTest, ReplayRoutesByDirection) {
  StubNetworkParams params;
  params.num_hosts = 2;
  StubNetworkSim sim(params);
  // Trace-driven: a sink uplink keeps the cloud from answering replayed
  // packets (the trace already holds the reverse direction).
  sim.router().set_uplink([](const net::Packet&) {});
  int out_seen = 0;
  int in_seen = 0;
  sim.router().add_outbound_tap(
      [&](SimTime, const net::Packet&) { ++out_seen; });
  sim.router().add_inbound_tap(
      [&](SimTime, const net::Packet&) { ++in_seen; });

  net::TcpPacketSpec out;
  out.src_ip = params.stub_prefix.host(1);
  out.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  sim.replay_at_router(SimTime::seconds(1), net::make_syn(out));

  net::TcpPacketSpec in;
  in.src_ip = net::Ipv4Address(192, 0, 2, 1);
  // Destination is inside the stub but not a simulated host: in replay
  // mode the endpoints live in the trace, and a live host would answer an
  // unexpected SYN/ACK with a RST that perturbs the outbound count.
  in.dst_ip = params.stub_prefix.host(200);
  sim.replay_at_router(SimTime::seconds(2), net::make_syn_ack(in));

  // Spoofed-source attack frame: neither src nor dst inside the stub,
  // but it *leaves* the stub, so it must cross the outbound interface.
  net::TcpPacketSpec spoofed;
  spoofed.src_ip = net::Ipv4Address(240, 0, 0, 1);
  spoofed.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  sim.replay_at_router(SimTime::seconds(3), net::make_syn(spoofed));

  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(out_seen, 2);
  EXPECT_EQ(in_seen, 1);
}

// --- StubSite flood ---------------------------------------------------------

const net::Ipv4Prefix kFloodStub{net::Ipv4Address{10, 9, 0, 0}, 16};
constexpr SimTime kFloodLan = SimTime::microseconds(50);
constexpr std::uint32_t kFloodHost = 2;
const net::Ipv4Address kFloodVictim{198, 51, 100, 10};
constexpr std::uint16_t kFloodPort = 80;
const net::Ipv4Prefix kFloodPool{net::Ipv4Address{240, 0, 0, 0}, 8};

/// What the outbound tap saw of one frame.
struct TappedSyn {
  SimTime at;
  net::MacAddress src_mac;
  net::MacAddress dst_mac;
  net::Ipv4Address src_ip;
  net::Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  bool operator==(const TappedSyn&) const = default;
};

/// A bare stub site on its own scheduler, recording its outbound tap.
struct FloodRig {
  Scheduler sched;
  StubSite site{sched,
                kFloodStub,
                4,
                kFloodLan,
                StubAddressing{net::MacAddress::for_host(0xffffff), 0, 0x700},
                TcpHostParams{},
                1};
  std::vector<TappedSyn> tapped;

  FloodRig() {
    site.router().add_outbound_tap([this](SimTime at, const net::Packet& p) {
      tapped.push_back({at, p.eth.src, p.eth.dst, p.ip.src, p.ip.dst,
                        p.tcp->src_port, p.tcp->dst_port, p.tcp->seq});
    });
  }

  /// A SYN host 3 sends from an event that is not the flood's.
  void foreign_syn(std::uint16_t sport) {
    net::TcpPacketSpec spec;
    spec.src_mac = site.host_mac(3);
    spec.dst_mac = site.router().mac();
    spec.src_ip = kFloodStub.host(3);
    spec.dst_ip = kFloodVictim;
    spec.src_port = sport;
    spec.dst_port = kFloodPort;
    site.router().forward_from_intranet(sched.now(), net::make_syn(spec));
  }
};

/// The flood as a pre-scheduled event set: each SYN drawn like
/// StubSite::launch_flood's, then scheduled on its own at launch, in
/// index order.
void launch_prescheduled_flood(FloodRig& rig,
                              const std::vector<SimTime>& syn_times,
                              util::Rng& rng) {
  for (const SimTime at : syn_times) {
    const net::Ipv4Address spoofed = kFloodPool.host(static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(kFloodPool.size()) - 2)));
    const auto sport =
        static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const std::uint32_t seq = rng.next_u32();
    rig.sched.schedule_at(at + kFloodLan, [&rig, spoofed, sport, seq] {
      net::TcpPacketSpec spec;
      spec.src_mac = rig.site.host_mac(kFloodHost);
      spec.dst_mac = rig.site.router().mac();
      spec.src_ip = spoofed;
      spec.dst_ip = kFloodVictim;
      spec.src_port = sport;
      spec.dst_port = kFloodPort;
      spec.seq = seq;
      rig.site.router().forward_from_intranet(rig.sched.now(),
                                              net::make_syn(spec));
    });
  }
}

TEST(StubSiteFloodTest, FiresLikeEverySynScheduledAtLaunch) {
  // Unsorted times on a 1 ms grid, so most SYNs tie with others.
  util::Rng time_rng(7);
  std::vector<SimTime> first;
  std::vector<SimTime> second;
  for (int k = 0; k < 300; ++k) {
    first.push_back(SimTime::milliseconds(time_rng.uniform_int(0, 49)));
  }
  for (int k = 0; k < 100; ++k) {
    second.push_back(SimTime::milliseconds(time_rng.uniform_int(20, 69)));
  }
  const SimTime tied = first.front() + kFloodLan;

  // Both rigs: a foreign SYN scheduled before launch and one after, at a
  // flooded instant, and a second flood launched from an event at 20 ms
  // while the first is under way.
  const auto drive = [&](FloodRig& rig, auto launch) {
    util::Rng rng(11);
    rig.sched.schedule_at(tied, [&rig] { rig.foreign_syn(1); });
    launch(first, rng);
    rig.sched.schedule_at(tied, [&rig] { rig.foreign_syn(2); });
    rig.sched.schedule_at(SimTime::milliseconds(20),
                          [&second, &rng, launch] { launch(second, rng); });
    rig.sched.run_all();
  };
  FloodRig cursor;
  drive(cursor, [&cursor](const std::vector<SimTime>& times, util::Rng& r) {
    cursor.site.launch_flood(kFloodHost, times, kFloodVictim, kFloodPort,
                             kFloodPool, r);
  });
  FloodRig oracle;
  drive(oracle, [&oracle](const std::vector<SimTime>& times, util::Rng& r) {
    launch_prescheduled_flood(oracle, times, r);
  });

  ASSERT_EQ(oracle.tapped.size(), first.size() + second.size() + 2);
  ASSERT_EQ(cursor.tapped.size(), oracle.tapped.size());
  for (std::size_t k = 0; k < oracle.tapped.size(); ++k) {
    EXPECT_TRUE(cursor.tapped[k] == oracle.tapped[k]) << "frame " << k;
  }
}

TEST(StubSiteFloodTest, KeepsOneEventPendingPerFlood) {
  FloodRig rig;
  rig.site.router().set_uplink([](const net::Packet&) {});
  std::vector<SimTime> times;
  for (int k = 0; k < 10'000; ++k) {
    times.push_back(SimTime::microseconds(100 * k));
  }
  util::Rng rng(5);
  rig.site.launch_flood(kFloodHost, times, kFloodVictim, kFloodPort,
                        kFloodPool, rng);
  EXPECT_EQ(rig.sched.pending(), 1u);
  std::size_t fired = 0;
  std::size_t most_pending = 0;
  while (rig.sched.step()) {
    ++fired;
    most_pending = std::max(most_pending, rig.sched.pending());
  }
  EXPECT_EQ(fired, times.size());
  EXPECT_LE(most_pending, 1u);
  EXPECT_EQ(rig.site.router().stats().forwarded_outbound, times.size());
}

TEST(StubSiteFloodTest, SynBeforeTheClockSchedulesNothing) {
  FloodRig rig;
  rig.sched.run_until(SimTime::seconds(1));
  util::Rng rng(5);
  EXPECT_THROW(rig.site.launch_flood(
                   kFloodHost, {SimTime::seconds(2), SimTime::milliseconds(5)},
                   kFloodVictim, kFloodPort, kFloodPool, rng),
               std::invalid_argument);
  EXPECT_EQ(rig.sched.pending(), 0u);
  rig.site.launch_flood(kFloodHost, {SimTime::seconds(2)}, kFloodVictim,
                        kFloodPort, kFloodPool, rng);
  rig.sched.run_all();
  ASSERT_EQ(rig.tapped.size(), 1u);
  EXPECT_EQ(rig.tapped[0].at, SimTime::seconds(2) + kFloodLan);
}

}  // namespace
}  // namespace syndog::sim
