#include <gtest/gtest.h>

#include "support/alloc_guard.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "syndog/classify/segment.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/locator.hpp"
#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::core {
namespace {

using util::SimTime;

// --- SynDog detector -----------------------------------------------------------

TEST(SynDogTest, NormalizationAndCusumByHand) {
  SynDogParams params;
  params.a = 0.35;
  params.threshold = 1.05;
  params.ewma_alpha = 0.9;
  SynDog dog(params);

  // Period 0: K unprimed -> normalize by the current SYN/ACK count.
  PeriodReport r0 = dog.observe_period(1050, 1000);
  EXPECT_DOUBLE_EQ(r0.delta, 50.0);
  EXPECT_DOUBLE_EQ(r0.x, 0.05);
  EXPECT_DOUBLE_EQ(r0.k_estimate, 1000.0);
  EXPECT_DOUBLE_EQ(r0.y, 0.0);  // 0.05 - 0.35 clamps to 0
  EXPECT_FALSE(r0.alarm);

  // Period 1: normalized by K(0) = 1000, then K updates per Eq. (1).
  PeriodReport r1 = dog.observe_period(2000, 1100);
  EXPECT_DOUBLE_EQ(r1.x, 900.0 / 1000.0);
  EXPECT_DOUBLE_EQ(r1.k_estimate, 0.9 * 1000.0 + 0.1 * 1100.0);
  EXPECT_DOUBLE_EQ(r1.y, 0.9 - 0.35);
  EXPECT_FALSE(r1.alarm);

  // Period 2: attack continues; y crosses N.
  PeriodReport r2 = dog.observe_period(2010, 1000);
  EXPECT_NEAR(r2.y, 0.55 + 1010.0 / 1010.0 - 0.35, 1e-12);
  EXPECT_TRUE(r2.alarm);
}

TEST(SynDogTest, SpoofedFloodDoesNotPoisonK) {
  // The SYN/ACK stream is driven by legitimate traffic only, so K must
  // stay at the pre-attack level during a flood.
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 50; ++n) {
    (void)dog.observe_period(1050, 1000);
  }
  const double k_before = dog.k();
  for (int n = 0; n < 10; ++n) {
    (void)dog.observe_period(5000, 1000);  // flood: SYNs up, SYN/ACKs flat
  }
  EXPECT_NEAR(dog.k(), k_before, 1.0);
}

TEST(SynDogTest, KFloorPreventsDivisionBlowup) {
  SynDog dog(SynDogParams::paper_defaults());
  const PeriodReport r = dog.observe_period(10, 0);  // idle link
  EXPECT_TRUE(std::isfinite(r.x));
  EXPECT_DOUBLE_EQ(r.x, 10.0);  // normalized by the floor of 1
}

TEST(SynDogTest, AlarmClearsAfterFloodEnds) {
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 20; ++n) (void)dog.observe_period(1050, 1000);
  for (int n = 0; n < 10; ++n) (void)dog.observe_period(3000, 1000);
  EXPECT_TRUE(dog.alarmed());
  // Normal traffic resumes; y decays by (a - c) per period back to 0.
  int periods = 0;
  while (dog.alarmed()) {
    (void)dog.observe_period(1050, 1000);
    ASSERT_LT(++periods, 100);
  }
  EXPECT_GT(periods, 3);  // decay is gradual, not instant
}

TEST(SynDogTest, MinDetectableRateEquation8) {
  // f_min = (a - c) * K / t0.
  EXPECT_NEAR(SynDog::min_detectable_rate(0.35, 0.0, 2114.0,
                                          SimTime::seconds(20)),
              37.0, 0.05);
  EXPECT_NEAR(SynDog::min_detectable_rate(0.35, 0.0, 100.0,
                                          SimTime::seconds(20)),
              1.75, 0.01);
  // Instance version uses the live K estimate.
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 200; ++n) (void)dog.observe_period(2200, 2114);
  EXPECT_NEAR(dog.min_detectable_rate(), 37.0, 0.5);
}

TEST(SynDogTest, ExpectedDetectionPeriodsEquation7) {
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 200; ++n) (void)dog.observe_period(2200, 2114);
  // Design point: fi such that drift = h = 2a gives N/(h-a) = 3 periods.
  const double fi_design = 0.7 * 2114.0 / 20.0;
  EXPECT_NEAR(dog.expected_detection_periods(fi_design), 3.0, 0.1);
  // Below the floor the bound is infinite.
  EXPECT_TRUE(std::isinf(dog.expected_detection_periods(10.0)));
}

TEST(SynDogTest, SiteTunedParametersLowerTheFloor) {
  const SynDogParams tuned = SynDogParams::site_tuned_unc();
  EXPECT_NEAR(SynDog::min_detectable_rate(tuned.a, 0.0, 2114.0,
                                          SimTime::seconds(20)),
              21.1, 0.3);  // paper: "decreases from 37 to 15" (with c > 0)
  EXPECT_NEAR(SynDog::min_detectable_rate(tuned.a, 0.05, 2114.0,
                                          SimTime::seconds(20)),
              15.9, 0.3);
}

TEST(SynDogTest, ResetRestoresColdState) {
  SynDog dog(SynDogParams::paper_defaults());
  (void)dog.observe_period(5000, 100);
  dog.reset();
  EXPECT_DOUBLE_EQ(dog.y(), 0.0);
  EXPECT_DOUBLE_EQ(dog.k(), 0.0);
  EXPECT_EQ(dog.periods_observed(), 0);
}

TEST(SynDogTest, ValidationAndErrors) {
  SynDogParams bad = SynDogParams::paper_defaults();
  bad.a = 0.0;
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);
  bad = SynDogParams::paper_defaults();
  bad.h = 0.3;  // h <= a
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);
  bad = SynDogParams::paper_defaults();
  bad.ewma_alpha = 1.0;
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);

  SynDog dog(SynDogParams::paper_defaults());
  EXPECT_THROW((void)dog.observe_period(-1, 0), std::invalid_argument);
}

TEST(SynDogTest, RunOverSeriesMatchesIncremental) {
  const std::vector<std::int64_t> syns = {1000, 1100, 3000, 3000, 1000};
  const std::vector<std::int64_t> acks = {950, 1050, 950, 950, 950};
  const auto reports =
      run_over_series(SynDogParams::paper_defaults(), syns, acks);
  SynDog dog(SynDogParams::paper_defaults());
  for (std::size_t n = 0; n < syns.size(); ++n) {
    const PeriodReport r = dog.observe_period(syns[n], acks[n]);
    EXPECT_DOUBLE_EQ(r.y, reports[n].y);
    EXPECT_EQ(r.alarm, reports[n].alarm);
  }
  EXPECT_THROW((void)run_over_series(SynDogParams::paper_defaults(),
                                     {1, 2}, {1}),
               std::invalid_argument);
}

// --- Sniffer ---------------------------------------------------------------------

net::Packet packet_with_flags(net::TcpFlags flags) {
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.flags = flags;
  return net::make_tcp_packet(spec);
}

TEST(SnifferTest, OutboundCountsOnlyPureSyns) {
  Sniffer sniffer(SnifferRole::kOutbound);
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_ack()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::ack_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::rst_only()));
  EXPECT_EQ(sniffer.period_count(), 1u);
  EXPECT_EQ(sniffer.packets_seen(), 4u);
}

TEST(SnifferTest, InboundCountsOnlySynAcks) {
  Sniffer sniffer(SnifferRole::kInbound);
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_ack()));
  EXPECT_EQ(sniffer.period_count(), 1u);
}

TEST(SnifferTest, HarvestResetsPeriodButKeepsLifetime) {
  Sniffer sniffer(SnifferRole::kOutbound);
  for (int i = 0; i < 5; ++i) {
    sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  }
  EXPECT_EQ(sniffer.harvest(), 5u);
  EXPECT_EQ(sniffer.period_count(), 0u);
  EXPECT_EQ(sniffer.lifetime_count(), 5u);
  EXPECT_EQ(sniffer.harvest(), 0u);
}

// --- SourceLocator ---------------------------------------------------------------

TEST(LocatorTest, RanksSpoofingStations) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  const auto spoofed_syn = [&](std::uint32_t host) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(host);
    spec.src_ip = net::Ipv4Address(240, 0, 0, host);  // outside the stub
    spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
    return net::make_syn(spec);
  };
  const auto honest_syn = [&](std::uint32_t host) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(host);
    spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
    return net::make_syn(spec);
  };

  for (int i = 0; i < 100; ++i) {
    locator.on_packet(SimTime::seconds(i), spoofed_syn(7));
  }
  for (int i = 0; i < 20; ++i) {
    locator.on_packet(SimTime::seconds(i), spoofed_syn(9));
    locator.on_packet(SimTime::seconds(i), honest_syn(3));
  }

  const auto suspects = locator.suspects();
  ASSERT_EQ(suspects.size(), 2u);  // host 3 never spoofed
  EXPECT_EQ(suspects[0].mac, net::MacAddress::for_host(7));
  EXPECT_EQ(suspects[0].spoofed_syns, 100u);
  EXPECT_EQ(suspects[1].mac, net::MacAddress::for_host(9));
  EXPECT_EQ(locator.spoofed_total(), 120u);

  const auto stations = locator.stations();
  EXPECT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0].mac, net::MacAddress::for_host(7));
}

TEST(LocatorTest, IgnoresNonSynTraffic) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(240, 0, 0, 1);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  spec.flags = net::TcpFlags::ack_only();
  locator.on_packet(SimTime::zero(), net::make_tcp_packet(spec));
  EXPECT_TRUE(locator.suspects().empty());
  EXPECT_EQ(locator.spoofed_total(), 0u);
}

TEST(LocatorTest, ResetClearsEvidence) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(7);
  spec.src_ip = net::Ipv4Address(240, 0, 0, 1);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  locator.on_packet(SimTime::zero(), net::make_syn(spec));
  EXPECT_EQ(locator.suspects().size(), 1u);
  locator.reset();
  EXPECT_TRUE(locator.suspects().empty());
  EXPECT_TRUE(locator.stations().empty());
}

/// A SYN from `mac`, with a source inside 10.1.0.0/16 unless `spoofed`.
net::Packet syn_from(net::MacAddress mac, bool spoofed) {
  net::TcpPacketSpec spec;
  spec.src_mac = mac;
  spec.src_ip = spoofed ? net::Ipv4Address(240, 0, 0, 1)
                        : net::Ipv4Address(10, 1, 2, 3);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  return net::make_syn(spec);
}

void expect_same_suspects(const std::vector<Suspect>& got,
                          const std::vector<Suspect>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("rank=" + std::to_string(i));
    EXPECT_EQ(got[i].mac, want[i].mac);
    EXPECT_EQ(got[i].spoofed_syns, want[i].spoofed_syns);
    EXPECT_EQ(got[i].total_syns, want[i].total_syns);
    EXPECT_EQ(got[i].first_seen, want[i].first_seen);
    EXPECT_EQ(got[i].last_seen, want[i].last_seen);
  }
}

/// The locator as a std::map keyed by MAC, ranked as SourceLocator
/// documents: count descending, then MAC ascending.
struct MapLocatorModel {
  net::Ipv4Prefix prefix;
  std::map<net::MacAddress, Suspect> by_mac;
  std::uint64_t spoofed_total = 0;

  void on_packet(SimTime at, const net::Packet& packet) {
    if (classify::classify_packet(packet) != classify::SegmentKind::kSyn) {
      return;
    }
    Suspect& entry = by_mac[packet.eth.src];
    if (entry.total_syns == 0) {
      entry.mac = packet.eth.src;
      entry.first_seen = at;
    }
    entry.last_seen = at;
    ++entry.total_syns;
    if (!prefix.contains(packet.ip.src)) {
      ++entry.spoofed_syns;
      ++spoofed_total;
    }
  }

  [[nodiscard]] std::vector<Suspect> ranked(std::uint64_t Suspect::*count,
                                            bool spoofers_only) const {
    std::vector<Suspect> out;  // MAC ascending, from the map
    for (const auto& [mac, entry] : by_mac) {
      if (!spoofers_only || entry.spoofed_syns > 0) out.push_back(entry);
    }
    std::stable_sort(out.begin(), out.end(),
                     [count](const Suspect& a, const Suspect& b) {
                       return a.*count > b.*count;
                     });
    return out;
  }
};

TEST(LocatorTest, MatchesMapModelOnRandomStream) {
  const net::Ipv4Prefix prefix = *net::Ipv4Prefix::parse("10.1.0.0/16");
  // Station MACs in three families that agree in most of their bits —
  // only the top bytes, only the last byte, or only the middle bytes
  // differ — so their index slots collide unless the hash mixes every
  // byte, plus MACs drawn at random.
  util::Rng rng(20261017);
  std::vector<net::MacAddress> pool;
  for (int i = 0; i < 128; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    pool.emplace_back(std::array<std::uint8_t, 6>{
        b, static_cast<std::uint8_t>(b * 7), 0xaa, 0xbb, 0xcc, 0x01});
    pool.emplace_back(std::array<std::uint8_t, 6>{0x02, 0, 0, 0, 0, b});
    pool.emplace_back(std::array<std::uint8_t, 6>{
        0x02, 0x10, b, static_cast<std::uint8_t>(b >> 3), 0, 0});
  }
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 6> bytes{};
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    pool.emplace_back(bytes);
  }

  SourceLocator locator(prefix);
  MapLocatorModel model{prefix, {}, 0};
  const auto expect_same = [&] {
    expect_same_suspects(locator.suspects(),
                         model.ranked(&Suspect::spoofed_syns, true));
    expect_same_suspects(locator.stations(),
                         model.ranked(&Suspect::total_syns, false));
    EXPECT_EQ(locator.spoofed_total(), model.spoofed_total);
  };

  constexpr int kSteps = 30000;
  for (int step = 0; step < kSteps; ++step) {
    const SimTime at = SimTime::milliseconds(step);
    // New stations keep arriving over the whole stream, so the index
    // rehashes several times between the comparisons.
    const auto reach = static_cast<std::int64_t>(
        std::min<std::size_t>(pool.size(), 16 + step / 40));
    const net::MacAddress mac =
        pool[static_cast<std::size_t>(rng.uniform_int(0, reach - 1))];
    net::TcpPacketSpec spec;
    spec.src_mac = mac;
    spec.src_ip = rng.bernoulli(0.5) ? net::Ipv4Address(10, 1, 0, 7)
                                     : net::Ipv4Address(203, 0, 113, 5);
    spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        spec.flags = net::TcpFlags::syn_ack();
        break;
      case 1:
        spec.flags = net::TcpFlags::ack_only();
        break;
      case 2:
        spec.flags = net::TcpFlags::rst_only();
        break;
      default:
        spec.flags = net::TcpFlags::syn_only();
        break;
    }
    const net::Packet packet = net::make_tcp_packet(spec);
    locator.on_packet(at, packet);
    model.on_packet(at, packet);
    if (step == 9000 || step == 21000) {
      locator.reset();
      model.by_mac.clear();
      model.spoofed_total = 0;
    }
    if (step % 1500 == 1499) {
      SCOPED_TRACE("step=" + std::to_string(step));
      expect_same();
    }
  }
  EXPECT_GT(locator.stations().size(), 400u);
  EXPECT_FALSE(locator.suspects().empty());
  expect_same();
}

TEST(LocatorTest, EqualCountsRankByMacAscending) {
  // More than 16 stations, so std::sort leaves insertion sort behind;
  // first seen in descending MAC order, each with one spoofed and one
  // honest SYN.
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  constexpr int kStations = 40;
  for (int host = kStations; host >= 1; --host) {
    const net::MacAddress mac = net::MacAddress::for_host(
        static_cast<std::uint32_t>(host));
    locator.on_packet(SimTime::seconds(kStations - host), syn_from(mac, true));
    locator.on_packet(SimTime::seconds(kStations - host),
                      syn_from(mac, false));
  }
  const std::vector<Suspect> suspects = locator.suspects();
  const std::vector<Suspect> stations = locator.stations();
  ASSERT_EQ(suspects.size(), static_cast<std::size_t>(kStations));
  ASSERT_EQ(stations.size(), static_cast<std::size_t>(kStations));
  for (int rank = 0; rank < kStations; ++rank) {
    const net::MacAddress want =
        net::MacAddress::for_host(static_cast<std::uint32_t>(rank + 1));
    EXPECT_EQ(suspects[static_cast<std::size_t>(rank)].mac, want);
    EXPECT_EQ(stations[static_cast<std::size_t>(rank)].mac, want);
  }
}

TEST(LocatorTest, KnownStationsDoNotAllocate) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  std::vector<net::Packet> syns;
  for (std::uint32_t host = 1; host <= 1000; ++host) {
    syns.push_back(syn_from(net::MacAddress::for_host(host), true));
    syns.push_back(syn_from(net::MacAddress::for_host(host), false));
  }
  for (const net::Packet& syn : syns) {
    locator.on_packet(SimTime::zero(), syn);  // first sight: stations enter
  }
  testsupport::AllocGuard guard;
  for (int round = 1; round <= 3; ++round) {
    for (const net::Packet& syn : syns) {
      locator.on_packet(SimTime::seconds(round), syn);
    }
  }
  const std::size_t allocations = guard.stop();
  EXPECT_EQ(allocations, 0u);
  const std::vector<Suspect> stations = locator.stations();
  ASSERT_EQ(stations.size(), 1000u);
  EXPECT_EQ(stations.front().total_syns, 8u);
  EXPECT_EQ(locator.spoofed_total(), 4000u);
}

// --- SynDogAgent -----------------------------------------------------------------

TEST(SynDogAgentTest, DirectEntryMatchesRouterTaps) {
  // One packet sequence, fed to an agent through a LeafRouter's taps and
  // to another through on_outbound / on_inbound: both must count alike.
  const net::Ipv4Prefix prefix = *net::Ipv4Prefix::parse("10.1.0.0/16");
  for (const AgentMode mode : {AgentMode::kFirstMile, AgentMode::kLastMile}) {
    SCOPED_TRACE(mode == AgentMode::kFirstMile ? "first-mile" : "last-mile");
    sim::Scheduler scheduler;
    sim::LeafRouter router(prefix, net::MacAddress::for_host(0));
    std::vector<AlarmEvent> tapped_alarms;
    std::vector<AlarmEvent> direct_alarms;
    SynDogAgent tapped(
        router, scheduler, SynDogParams::paper_defaults(),
        [&](const AlarmEvent& ev) { tapped_alarms.push_back(ev); }, mode);
    SynDogAgent direct(
        prefix, scheduler, SynDogParams::paper_defaults(),
        [&](const AlarmEvent& ev) { direct_alarms.push_back(ev); }, mode);

    util::Rng rng(91);
    const SimTime end = SimTime::minutes(8);
    for (SimTime at = SimTime::zero(); at < end;
         at = at + SimTime::milliseconds(25)) {
      scheduler.run_until(at);
      // From minute 4 on, half the traffic is a flood: spoofed SYNs out
      // of the stub and SYNs into it, neither of which is answered.
      const bool flood = at >= SimTime::minutes(4) && rng.bernoulli(0.5);
      const bool outbound = rng.bernoulli(0.5);
      net::TcpPacketSpec spec;
      spec.src_mac = net::MacAddress::for_host(
          static_cast<std::uint32_t>(rng.uniform_int(1, 40)));
      const net::Ipv4Address inside(
          10, 1, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 200)));
      const net::Ipv4Address outside(198, 51, 100, 10);
      spec.src_ip = outbound ? inside : outside;
      spec.dst_ip = outbound ? outside : inside;
      if (flood) {
        spec.flags = net::TcpFlags::syn_only();
        if (outbound && rng.bernoulli(0.8)) {
          spec.src_ip = net::Ipv4Address(240, 0, 0, 1);
        }
      } else {
        const std::array<net::TcpFlags, 4> kinds = {
            net::TcpFlags::syn_only(), net::TcpFlags::syn_ack(),
            net::TcpFlags::ack_only(), net::TcpFlags::rst_only()};
        spec.flags = kinds[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      }
      const net::Packet packet = net::make_tcp_packet(spec);
      if (outbound) {
        router.forward_from_intranet(at, packet);
        direct.on_outbound(at, packet);
      } else {
        router.forward_from_internet(at, packet);
        direct.on_inbound(at, packet);
      }
    }
    scheduler.run_until(end);

    EXPECT_TRUE(direct.ever_alarmed());
    EXPECT_EQ(direct.history(), tapped.history());
    EXPECT_EQ(direct.outbound_sniffer().lifetime_count(),
              tapped.outbound_sniffer().lifetime_count());
    EXPECT_EQ(direct.outbound_sniffer().packets_seen(),
              tapped.outbound_sniffer().packets_seen());
    EXPECT_EQ(direct.inbound_sniffer().lifetime_count(),
              tapped.inbound_sniffer().lifetime_count());
    EXPECT_EQ(direct.inbound_sniffer().packets_seen(),
              tapped.inbound_sniffer().packets_seen());
    EXPECT_GT(direct.outbound_sniffer().lifetime_count(), 0u);
    EXPECT_GT(direct.inbound_sniffer().lifetime_count(), 0u);
    expect_same_suspects(direct.locator().suspects(),
                         tapped.locator().suspects());
    expect_same_suspects(direct.locator().stations(),
                         tapped.locator().stations());
    EXPECT_EQ(direct.locator().stations().empty(),
              mode == AgentMode::kLastMile);
    ASSERT_EQ(direct_alarms.size(), tapped_alarms.size());
    for (std::size_t i = 0; i < direct_alarms.size(); ++i) {
      EXPECT_EQ(direct_alarms[i].report, tapped_alarms[i].report);
      expect_same_suspects(direct_alarms[i].suspects,
                           tapped_alarms[i].suspects);
    }
  }
}

}  // namespace
}  // namespace syndog::core
