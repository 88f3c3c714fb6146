// Connection teardown (paper Fig. 1's second half): FIN/ACK exchanges
// between simulated hosts, auto-closing workloads, and the invariant
// that teardown traffic never perturbs the SYN-dog counters.
#include <gtest/gtest.h>

#include "syndog/core/agent.hpp"
#include "syndog/sim/network.hpp"

namespace syndog::sim {
namespace {

using util::SimTime;

struct Pair {
  Scheduler sched;
  std::unique_ptr<TcpHost> client;
  std::unique_ptr<TcpHost> server;

  explicit Pair(TcpHostParams params = {}) {
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

TEST(TeardownTest, ActiveCloseCompletesOnBothSides) {
  Pair pair;
  pair.server->listen(80);
  pair.client->connect(pair.server->ip(), 80);
  pair.sched.run_all();
  ASSERT_EQ(pair.client->established_count(), 1u);
  ASSERT_EQ(pair.server->established_count(), 1u);

  // The client used the first ephemeral port (32768).
  pair.client->close(pair.server->ip(), 80, 32768);
  pair.sched.run_all();

  EXPECT_EQ(pair.client->established_count(), 0u);
  EXPECT_EQ(pair.server->established_count(), 0u);
  EXPECT_EQ(pair.client->stats().fins_sent, 1u);
  EXPECT_EQ(pair.server->stats().fins_sent, 1u);
  EXPECT_EQ(pair.client->stats().closed_gracefully, 1u);
  EXPECT_EQ(pair.server->stats().closed_gracefully, 1u);
}

TEST(TeardownTest, CloseOfUnknownConnectionIsNoOp) {
  Pair pair;
  pair.client->close(pair.server->ip(), 80, 12345);
  pair.sched.run_all();
  EXPECT_EQ(pair.client->stats().fins_sent, 0u);
}

TEST(TeardownTest, DoubleCloseSendsOneFin) {
  Pair pair;
  pair.server->listen(80);
  pair.client->connect(pair.server->ip(), 80);
  pair.sched.run_all();
  pair.client->close(pair.server->ip(), 80, 32768);
  pair.client->close(pair.server->ip(), 80, 32768);
  pair.sched.run_all();
  EXPECT_EQ(pair.client->stats().fins_sent, 1u);
}

TEST(TeardownTest, RstTearsDownEstablishedState) {
  Pair pair;
  pair.server->listen(80);
  pair.client->connect(pair.server->ip(), 80);
  pair.sched.run_all();
  ASSERT_EQ(pair.server->established_count(), 1u);
  net::TcpPacketSpec spec;
  spec.src_ip = pair.client->ip();
  spec.dst_ip = pair.server->ip();
  spec.src_port = 32768;
  spec.dst_port = 80;
  spec.flags = net::TcpFlags::rst_only();
  pair.server->receive(net::make_tcp_packet(spec));
  EXPECT_EQ(pair.server->established_count(), 0u);
}

TEST(TeardownTest, AutoCloseGeneratesFinTrafficThroughTheCloud) {
  StubNetworkParams params;
  params.num_hosts = 5;
  params.cloud.no_answer_probability = 0.0;
  params.host_params.auto_close_after = SimTime::seconds(5);
  StubNetworkSim sim(params);

  std::uint64_t fins_outbound = 0;
  sim.router().add_outbound_tap(
      [&](SimTime, const net::Packet& pkt) { fins_outbound += pkt.is_fin(); });

  std::vector<SimTime> starts;
  for (int i = 0; i < 20; ++i) {
    starts.push_back(SimTime::milliseconds(200 * (i + 1)));
  }
  sim.schedule_outbound_background(starts);
  sim.run_until(SimTime::seconds(60));

  std::uint64_t established = 0;
  std::uint64_t closed = 0;
  std::size_t still_open = 0;
  for (std::uint32_t h = 1; h <= params.num_hosts; ++h) {
    established += sim.host(h).stats().established_as_client;
    closed += sim.host(h).stats().closed_gracefully;
    still_open += sim.host(h).established_count();
  }
  EXPECT_EQ(established, 20u);
  EXPECT_EQ(closed, 20u);       // every connection tore down cleanly
  EXPECT_EQ(still_open, 0u);    // no leaked connection state
  EXPECT_EQ(fins_outbound, 20u);
}

TEST(TeardownTest, FinTrafficDoesNotPerturbSynDog) {
  // A workload dominated by teardown packets (short-lived connections)
  // must leave the detector exactly as quiet as a persistent one.
  StubNetworkParams params;
  params.num_hosts = 10;
  params.host_params.auto_close_after = SimTime::seconds(2);
  StubNetworkSim sim(params);
  core::SynDogAgent agent(sim.router(), sim.scheduler(),
                          core::SynDogParams::paper_defaults());

  util::Rng rng(9);
  std::vector<SimTime> starts;
  double t = 0.0;
  while (t < 5 * 60.0) {
    t += rng.exponential_mean(0.1);  // 10 conn/s, all closing after 2 s
    starts.push_back(SimTime::from_seconds(t));
  }
  sim.schedule_outbound_background(starts);
  sim.run_until(SimTime::minutes(5));

  EXPECT_FALSE(agent.ever_alarmed());
  // The sniffers saw plenty of traffic (SYN+SYNACK+ACK+2xFIN+2xACK per
  // connection) but counted only the SYNs/SYN-ACKs.
  EXPECT_GT(agent.outbound_sniffer().packets_seen(),
            3 * agent.outbound_sniffer().lifetime_count());
}

TEST(SynAckRetransmissionTest, ServerRetransmitsTwiceThenTimesOut) {
  // Paper §1: "The half-open connection is not closed until the failure
  // of two retransmissions, which typically lasts for 75 seconds."
  Scheduler sched;
  int syn_acks_on_wire = 0;
  TcpHost server(net::Ipv4Address(10, 0, 0, 2),
                 net::MacAddress::for_host(2),
                 net::MacAddress::for_host(99), sched,
                 [&](const net::Packet& pkt) {
                   syn_acks_on_wire += pkt.is_syn_ack();
                 },
                 TcpHostParams{}, 3);
  server.listen(80);
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(240, 0, 0, 1);  // spoofed: no ACK ever
  spec.dst_ip = server.ip();
  spec.src_port = 1234;
  spec.dst_port = 80;
  server.receive(net::make_syn(spec));

  sched.run_until(SimTime::seconds(2));
  EXPECT_EQ(syn_acks_on_wire, 1);  // initial
  sched.run_until(SimTime::seconds(4));
  EXPECT_EQ(syn_acks_on_wire, 2);  // +retx at 3 s
  sched.run_until(SimTime::seconds(10));
  EXPECT_EQ(syn_acks_on_wire, 3);  // +retx at 9 s
  sched.run_until(SimTime::seconds(74));
  EXPECT_EQ(syn_acks_on_wire, 3);  // no further retransmissions
  EXPECT_EQ(server.half_open_count(), 1u);
  sched.run_until(SimTime::seconds(76));
  EXPECT_EQ(server.half_open_count(), 0u);  // 75 s lifetime expired
  EXPECT_EQ(server.stats().half_open_timeouts, 1u);
  EXPECT_EQ(server.stats().syn_acks_sent, 3u);
}

TEST(SynAckRetransmissionTest, CompletionCancelsRetransmissions) {
  Pair pair;
  pair.server->listen(80);
  pair.client->connect(pair.server->ip(), 80);
  pair.sched.run_all();
  // Handshake completed within the first RTO: exactly one SYN/ACK.
  EXPECT_EQ(pair.server->stats().syn_acks_sent, 1u);
  EXPECT_EQ(pair.server->half_open_count(), 0u);
}

}  // namespace
}  // namespace syndog::sim
