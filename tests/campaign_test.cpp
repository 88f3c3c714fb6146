// CampaignSim contract tests.
//
// Four suites, mirroring the module's design guarantees:
//  * CampaignTest — parameter validation and 1-based host indexing.
//  * CampaignOracleTest — the sharded engine against the single-loop
//    MultiStubSim oracle under the deterministic traffic profile
//    (loss=0, bandwidth=0, no_answer=0, rtt_sigma=0): identical connect
//    lists and flood timelines must yield identical per-period tables,
//    alarm timelines, and victim-side stats. (no_answer must be 0
//    because the oracle's one cloud rng interleaves draws across stubs
//    while the campaign draws from per-stub children; with every other
//    knob deterministic the remaining draws — ISNs, sports, spoofed
//    sources — cannot affect counts or timing.)
//  * CampaignThreadsTest — workers ∈ {1, 2, 8} produce byte-identical
//    state digests, merged alarms and metrics; runs split off the window
//    grid match the inline reference split the same way; an exception in
//    a cell reaches the caller.
//  * CampaignBarrierTest — randomized windows/latencies: no mailbox
//    record is ever injected with arrival before the barrier
//    (min_injection_margin() >= 0), at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "syndog/campaign/campaign_sim.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/net/address.hpp"
#include "syndog/sim/multistub.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog {
namespace {

using util::SimTime;

campaign::CampaignParams small_params() {
  campaign::CampaignParams p;
  p.stub_count = 3;
  p.hosts_per_stub = 10;
  return p;
}

TEST(CampaignTest, ValidatesParameterRanges) {
  EXPECT_NO_THROW(campaign::CampaignSim{small_params()});

  auto bad = small_params();
  bad.stub_count = 0;
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.stub_count = campaign::CampaignParams::kMaxStubs + 1;
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.hosts_per_stub = 0;
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.hosts_per_stub = 4095;  // /20 prefix: 4094 addressable hosts
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.uplink_delay = SimTime::zero();  // zero lookahead
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.window = bad.uplink_delay + bad.downlink_delay;  // > lookahead
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.victim_ip = net::Ipv4Address(10, 0, 1, 5);  // inside stub 0
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
  bad = small_params();
  bad.victim_ip = net::Ipv4Address(240, 1, 2, 3);  // inside spoof pool
  EXPECT_THROW(campaign::CampaignSim{bad}, std::invalid_argument);
}

TEST(CampaignTest, HostIndexIsOneBasedAndRangeChecked) {
  campaign::CampaignSim sim(small_params());
  // Host 1 is prefix offset 1 (offset 0 is the unaddressable base).
  EXPECT_EQ(sim.host(0, 1).ip(), sim.stub_prefix(0).host(1));
  EXPECT_EQ(sim.host(2, 10).ip(), sim.stub_prefix(2).host(10));
  EXPECT_THROW((void)sim.host(0, 0), std::out_of_range);
  EXPECT_THROW((void)sim.host(0, 11), std::out_of_range);
  EXPECT_THROW((void)sim.host(-1, 1), std::out_of_range);
  EXPECT_THROW((void)sim.host(3, 1), std::out_of_range);
  try {
    (void)sim.host(0, 0);
    FAIL() << "host(0, 0) must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 10]"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignTest, StubPrefixesAreDisjointAndOwnTheirHosts) {
  auto p = small_params();
  p.stub_count = 40;
  campaign::CampaignSim sim(p);
  for (int s = 1; s < p.stub_count; ++s) {
    EXPECT_FALSE(
        sim.stub_prefix(s).contains(sim.stub_prefix(s - 1).host(1)));
    EXPECT_FALSE(
        sim.stub_prefix(s - 1).contains(sim.stub_prefix(s).host(1)));
  }
}

// ---- Oracle equivalence ----------------------------------------------

struct Profile {
  int stubs = 3;
  std::uint32_t hosts = 10;
  SimTime lan = SimTime::microseconds(100);
  SimTime up = SimTime::milliseconds(5);
  SimTime down = SimTime::milliseconds(5);
  std::uint64_t seed = 1;
  SimTime t0 = SimTime::seconds(5);
  SimTime end = SimTime::seconds(70);
};

struct ConnectPlan {
  int stub;
  std::uint32_t host;
  SimTime at;
  net::Ipv4Address dst;
};

core::SynDogParams agent_params(const Profile& p) {
  core::SynDogParams a;
  a.observation_period = p.t0;
  return a;
}

sim::TcpHostParams victim_params() {
  sim::TcpHostParams v;
  v.backlog = 256;
  return v;
}

// The identical workload both engines replay: ~5 background conn/s per
// stub to generic servers, plus a 100 SYN/s spoofed flood per stub over
// [20 s, 50 s).
std::vector<ConnectPlan> make_background(const Profile& p) {
  util::Rng rng(99);
  std::vector<ConnectPlan> plan;
  for (int s = 0; s < p.stubs; ++s) {
    double t = 0.0;
    while (true) {
      t += rng.exponential_mean(0.2);
      if (t >= p.end.to_seconds() - 1.0) break;
      plan.push_back(
          {s,
           static_cast<std::uint32_t>(
               rng.uniform_int(1, static_cast<std::int64_t>(p.hosts))),
           SimTime::from_seconds(t),
           net::Ipv4Address(static_cast<std::uint32_t>(
               0x80000000u + rng.next_u32() % 0x20000000u))});
    }
  }
  return plan;
}

std::vector<std::vector<SimTime>> make_flood_times(const Profile& p) {
  util::Rng rng(7);
  std::vector<std::vector<SimTime>> per_stub(
      static_cast<std::size_t>(p.stubs));
  for (auto& times : per_stub) {
    double t = 20.0;
    while (true) {
      t += rng.exponential_mean(0.01);
      if (t >= 50.0) break;
      times.push_back(SimTime::from_seconds(t));
    }
  }
  return per_stub;
}

struct OracleRun {
  std::unique_ptr<sim::MultiStubSim> net;
  std::vector<std::unique_ptr<core::SynDogAgent>> agents;
  sim::TcpHost* victim = nullptr;
};

OracleRun run_oracle(const Profile& p,
                     const std::vector<ConnectPlan>& background,
                     const std::vector<std::vector<SimTime>>& floods) {
  sim::MultiStubParams mp;
  mp.stub_count = p.stubs;
  mp.hosts_per_stub = p.hosts;
  mp.lan_delay = p.lan;
  mp.uplink_delay = p.up;
  mp.downlink_delay = p.down;
  mp.cloud.no_answer_probability = 0.0;
  mp.cloud.rtt_sigma = 0.0;
  mp.seed = p.seed;
  OracleRun run;
  run.net = std::make_unique<sim::MultiStubSim>(mp);
  run.victim = &run.net->add_internet_host(
      net::Ipv4Address(198, 51, 100, 10), victim_params());
  run.victim->listen(80);
  for (int s = 0; s < p.stubs; ++s) {
    run.agents.push_back(std::make_unique<core::SynDogAgent>(
        run.net->router(s), run.net->scheduler(), agent_params(p)));
  }
  for (const ConnectPlan& c : background) {
    sim::TcpHost* h = &run.net->host(c.stub, c.host);
    const net::Ipv4Address dst = c.dst;
    run.net->scheduler().schedule_at(c.at,
                                     [h, dst] { h->connect(dst, 80); });
  }
  for (int s = 0; s < p.stubs; ++s) {
    run.net->launch_flood(s, 1, floods[static_cast<std::size_t>(s)],
                          run.victim->ip(), 80,
                          *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }
  run.net->run_until(p.end);
  return run;
}

std::unique_ptr<campaign::CampaignSim> run_campaign(
    const Profile& p, const std::vector<ConnectPlan>& background,
    const std::vector<std::vector<SimTime>>& floods, int workers,
    int cells = 0) {
  campaign::CampaignParams cp;
  cp.stub_count = p.stubs;
  cp.hosts_per_stub = p.hosts;
  cp.cells = cells;
  cp.lan_delay = p.lan;
  cp.uplink_delay = p.up;
  cp.downlink_delay = p.down;
  cp.responder.no_answer_probability = 0.0;
  cp.responder.rtt_sigma = 0.0;
  cp.victim_params = victim_params();
  cp.agent_params = agent_params(p);
  cp.seed = p.seed;
  auto sim = std::make_unique<campaign::CampaignSim>(cp);
  for (const ConnectPlan& c : background) {
    sim->connect_background(c.stub, c.host, c.at, c.dst, 80);
  }
  for (int s = 0; s < p.stubs; ++s) {
    sim->launch_flood(s, 1, floods[static_cast<std::size_t>(s)],
                      *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }
  sim->run_until(p.end, workers);
  return sim;
}

TEST(CampaignOracleTest, MatchesSingleLoopOracleAtAnyWorkerCount) {
  const Profile p;
  const auto background = make_background(p);
  const auto floods = make_flood_times(p);
  ASSERT_GT(background.size(), 500u);
  ASSERT_GT(floods[0].size(), 2000u);

  const OracleRun oracle = run_oracle(p, background, floods);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto sharded = run_campaign(p, background, floods, workers);

    for (int s = 0; s < p.stubs; ++s) {
      SCOPED_TRACE("stub=" + std::to_string(s));
      const core::SynDogAgent& a =
          *oracle.agents[static_cast<std::size_t>(s)];
      const core::SynDogAgent& b = sharded->agent(s);
      // Whole-table equality, alarm flags and CUSUM doubles included
      // (PeriodReport::operator== is exact).
      EXPECT_EQ(a.history(), b.history());
      EXPECT_EQ(a.ever_alarmed(), b.ever_alarmed());
      EXPECT_EQ(a.first_alarm_period(), b.first_alarm_period());
      EXPECT_TRUE(b.ever_alarmed());  // the flood is far above f_min
    }

    const sim::TcpHostStats& ov = oracle.victim->stats();
    const sim::TcpHostStats& cv = sharded->victim().stats();
    EXPECT_EQ(ov.syns_received, cv.syns_received);
    EXPECT_EQ(ov.syn_acks_sent, cv.syn_acks_sent);
    EXPECT_EQ(ov.backlog_drops, cv.backlog_drops);
    EXPECT_EQ(ov.established_as_server, cv.established_as_server);
    EXPECT_EQ(ov.rsts_sent, cv.rsts_sent);
    EXPECT_EQ(oracle.victim->half_open_count(),
              sharded->victim().half_open_count());

    // The oracle cloud counts both directions of spoof-pool disposal in
    // one counter; the campaign splits it across the victim edge and
    // the per-stub responders.
    const sim::CloudStats& cs = oracle.net->cloud().stats();
    EXPECT_EQ(cs.dropped_unreachable,
              sharded->cross_stats().dropped_unreachable +
                  sharded->responder_stats().dropped_unreachable);
    // Cloud syns_seen covers generic space only; attached-host (victim)
    // deliveries are the campaign's to_victim mailbox records.
    EXPECT_EQ(cs.syns_seen, sharded->responder_stats().syns_seen);
    EXPECT_EQ(cs.delivered_to_hosts, sharded->cross_stats().to_victim);
    EXPECT_EQ(cs.syn_acks_generated,
              sharded->responder_stats().syn_acks_generated);
    // Both engines answer through sim::answer_segment. What the oracle
    // cloud absorbs, the campaign absorbs either at a stub's responder
    // or at the victim's edge.
    EXPECT_EQ(cs.unanswered, sharded->responder_stats().unanswered);
    EXPECT_EQ(cs.absorbed_elsewhere,
              sharded->responder_stats().absorbed_elsewhere +
                  sharded->cross_stats().absorbed_elsewhere);
  }
}

TEST(CampaignOracleTest, CellDecompositionDoesNotChangeResults) {
  Profile p;
  p.end = SimTime::seconds(30);
  const auto background = make_background(p);
  const auto floods = make_flood_times(p);
  const auto one_cell = run_campaign(p, background, floods, 1, 1);
  const auto per_stub_cells =
      run_campaign(p, background, floods, 1, p.stubs);
  EXPECT_EQ(one_cell->state_digest(), per_stub_cells->state_digest());
}

// ---- Flood wire contract ----------------------------------------------
//
// Every engine's flood agent must put the same SYNs on its stub's
// outbound interface: one per flood time, at that time plus the LAN
// delay, from the attacker's MAC, spoofed from the pool, to the victim.

const net::Ipv4Address kVictim{198, 51, 100, 10};
constexpr std::uint16_t kVictimPort = 80;
constexpr std::uint32_t kAttacker = 2;
const net::Ipv4Prefix kSpoofPool{net::Ipv4Address{240, 0, 0, 0}, 8};

/// One engine with a flood agent on host kAttacker of the stub it taps.
class FloodEngine {
 public:
  FloodEngine() = default;
  FloodEngine(const FloodEngine&) = delete;
  FloodEngine& operator=(const FloodEngine&) = delete;
  virtual ~FloodEngine() = default;
  virtual sim::LeafRouter& router() = 0;
  virtual sim::TcpHost& attacker() = 0;
  virtual SimTime lan_delay() = 0;
  virtual void launch(const std::vector<SimTime>& times) = 0;
  virtual void run(SimTime end) = 0;
};

class StubNetworkFlood : public FloodEngine {
 public:
  StubNetworkFlood() : net_([] {
    sim::StubNetworkParams p;
    p.num_hosts = 4;
    return p;
  }()) {}
  sim::LeafRouter& router() override { return net_.router(); }
  sim::TcpHost& attacker() override { return net_.host(kAttacker); }
  SimTime lan_delay() override { return net_.params().lan_delay; }
  void launch(const std::vector<SimTime>& times) override {
    net_.launch_flood(kAttacker, times, kVictim, kVictimPort, kSpoofPool);
  }
  void run(SimTime end) override { net_.run_until(end); }

 private:
  sim::StubNetworkSim net_;
};

class MultiStubFlood : public FloodEngine {
 public:
  MultiStubFlood() : net_(params()) {}
  static sim::MultiStubParams params() {
    sim::MultiStubParams p;
    p.stub_count = 2;
    p.hosts_per_stub = 4;
    return p;
  }
  sim::LeafRouter& router() override { return net_.router(1); }
  sim::TcpHost& attacker() override { return net_.host(1, kAttacker); }
  SimTime lan_delay() override { return params().lan_delay; }
  void launch(const std::vector<SimTime>& times) override {
    net_.launch_flood(1, kAttacker, times, kVictim, kVictimPort, kSpoofPool);
  }
  void run(SimTime end) override { net_.run_until(end); }

 private:
  sim::MultiStubSim net_;
};

class CampaignFlood : public FloodEngine {
 public:
  CampaignFlood() : net_([] {
    campaign::CampaignParams p;
    p.stub_count = 1;
    p.hosts_per_stub = 4;
    p.victim_ip = kVictim;
    p.victim_port = kVictimPort;
    return p;
  }()) {}
  sim::LeafRouter& router() override { return net_.router(0); }
  sim::TcpHost& attacker() override { return net_.host(0, kAttacker); }
  SimTime lan_delay() override { return net_.params().lan_delay; }
  void launch(const std::vector<SimTime>& times) override {
    net_.launch_flood(0, kAttacker, times, kSpoofPool);
  }
  void run(SimTime end) override { net_.run_until(end); }

 private:
  campaign::CampaignSim net_;
};

enum class FloodEngineKind : std::uint8_t {
  kStubNetworkSim,
  kMultiStubSim,
  kCampaignSim
};

std::unique_ptr<FloodEngine> make_flood_engine(FloodEngineKind kind) {
  switch (kind) {
    case FloodEngineKind::kStubNetworkSim:
      return std::make_unique<StubNetworkFlood>();
    case FloodEngineKind::kMultiStubSim:
      return std::make_unique<MultiStubFlood>();
    case FloodEngineKind::kCampaignSim:
      return std::make_unique<CampaignFlood>();
  }
  return nullptr;
}

class FloodWireContractTest
    : public ::testing::TestWithParam<FloodEngineKind> {};

TEST_P(FloodWireContractTest, EachFloodTimeIsOneSynOnTheOutboundTap) {
  util::Rng rng(3);
  std::vector<SimTime> syn_times;
  double t = 1.0;
  for (int k = 0; k < 200; ++k) {
    t += rng.exponential_mean(0.01);
    syn_times.push_back(SimTime::from_seconds(t));
  }

  const std::unique_ptr<FloodEngine> engine = make_flood_engine(GetParam());
  struct Seen {
    SimTime at;
    net::Packet packet;
  };
  std::vector<Seen> syns;
  engine->router().add_outbound_tap(
      [&](SimTime at, const net::Packet& pkt) {
        if (pkt.is_syn()) syns.push_back({at, pkt});
      });
  engine->launch(syn_times);
  engine->run(SimTime::seconds(10));

  ASSERT_EQ(syns.size(), syn_times.size());
  const net::MacAddress attacker_mac = engine->attacker().mac();
  for (std::size_t k = 0; k < syns.size(); ++k) {
    SCOPED_TRACE("syn " + std::to_string(k));
    const net::Packet& syn = syns[k].packet;
    EXPECT_EQ(syns[k].at, syn_times[k] + engine->lan_delay());
    EXPECT_EQ(syn.eth.src, attacker_mac);
    EXPECT_TRUE(kSpoofPool.contains(syn.ip.src));
    EXPECT_EQ(syn.ip.dst, kVictim);
    EXPECT_EQ(syn.tcp->dst_port, kVictimPort);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, FloodWireContractTest,
    ::testing::Values(FloodEngineKind::kStubNetworkSim,
                      FloodEngineKind::kMultiStubSim,
                      FloodEngineKind::kCampaignSim),
    [](const ::testing::TestParamInfo<FloodEngineKind>& info) {
      switch (info.param) {
        case FloodEngineKind::kStubNetworkSim:
          return std::string("StubNetworkSim");
        case FloodEngineKind::kMultiStubSim:
          return std::string("MultiStubSim");
        case FloodEngineKind::kCampaignSim:
          return std::string("CampaignSim");
      }
      return std::string("Unknown");
    });

// ---- Cross-worker-count byte identity --------------------------------

/// A wire-level campaign of `stubs` stubs, set up but not yet run:
/// background on every stub over [0, 40 s), floods from up to 4 stubs.
std::unique_ptr<campaign::CampaignSim> make_wire_campaign(int stubs) {
  campaign::CampaignParams cp;
  cp.stub_count = stubs;
  cp.hosts_per_stub = 200;
  cp.agent_params.observation_period = SimTime::seconds(5);
  cp.seed = 11;
  auto sim = std::make_unique<campaign::CampaignSim>(cp);
  for (int s = 0; s < stubs; ++s) {
    sim->start_wire_background(s, 20.0, SimTime::zero(),
                               SimTime::seconds(40));
  }
  // Flood timelines shared across instances: one deterministic draw per
  // stub, same child construction the engine itself uses.
  for (int s = 0; s < std::min(stubs, 4); ++s) {
    util::Rng rng = util::Rng::child(1234, static_cast<std::uint64_t>(s));
    std::vector<SimTime> times;
    double t = 15.0;
    while (true) {
      t += rng.exponential_mean(1.0 / 80.0);
      if (t >= 35.0) break;
      times.push_back(SimTime::from_seconds(t));
    }
    sim->launch_flood(s, 1, times, *net::Ipv4Prefix::parse("240.0.0.0/8"));
  }
  return sim;
}

std::unique_ptr<campaign::CampaignSim> run_wire_campaign(int workers,
                                                         int stubs = 16) {
  auto sim = make_wire_campaign(stubs);
  sim->run_until(SimTime::seconds(40), workers);
  return sim;
}

TEST(CampaignThreadsTest, WorkerCountIsInvisibleInEveryOutput) {
  const auto reference = run_wire_campaign(1);
  const std::string ref_digest = reference->state_digest();
  EXPECT_GE(reference->stubs_alarmed(), 4);
  EXPECT_GT(reference->cross_stats().to_victim, 1000u);

  for (const int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto threaded = run_wire_campaign(workers);
    EXPECT_EQ(ref_digest, threaded->state_digest());
    ASSERT_EQ(reference->merged_alarms().size(),
              threaded->merged_alarms().size());
    for (std::size_t i = 0; i < reference->merged_alarms().size(); ++i) {
      EXPECT_EQ(reference->merged_alarms()[i].stub,
                threaded->merged_alarms()[i].stub);
      EXPECT_EQ(reference->merged_alarms()[i].event.at,
                threaded->merged_alarms()[i].event.at);
    }
  }
}

TEST(CampaignThreadsTest, SplitRunsMatchTheInlineReference) {
  // 7.0123 s is off the 5 ms window grid, so the first call ends on a
  // short window; calling again with the same end must return at once.
  const SimTime split = SimTime::from_seconds(7.0123);
  const SimTime end = SimTime::seconds(40);
  for (const int stubs : {16, 1}) {
    SCOPED_TRACE("stubs=" + std::to_string(stubs));
    const auto inline_run = make_wire_campaign(stubs);
    inline_run->run_until(split);
    inline_run->run_until(end);

    const auto threaded = make_wire_campaign(stubs);
    threaded->run_until(split, 8);
    EXPECT_EQ(threaded->now(), split);
    threaded->run_until(split, 8);
    EXPECT_EQ(threaded->now(), split);
    // One stub makes two cells: most of the 8 workers claim nothing.
    threaded->run_until(end, stubs == 1 ? 8 : 2);
    EXPECT_EQ(inline_run->state_digest(), threaded->state_digest());
  }
}

TEST(CampaignThreadsTest, CellExceptionReachesTheCaller) {
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto sim = make_wire_campaign(16);
    sim->router(9).set_uplink([](const net::Packet&) {
      throw std::runtime_error("uplink down");
    });
    EXPECT_THROW(sim->run_until(SimTime::seconds(40), 8),
                 std::runtime_error);
  }
}

// ---- Randomized barrier / lookahead property -------------------------

TEST(CampaignBarrierTest, NoInjectionEverCrossesABarrier) {
  util::Rng trial_rng(20260808);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    campaign::CampaignParams cp;
    cp.stub_count = static_cast<int>(trial_rng.uniform_int(3, 9));
    cp.hosts_per_stub = 64;
    cp.cells = static_cast<int>(trial_rng.uniform_int(0, cp.stub_count));
    cp.uplink_delay =
        util::SimTime::microseconds(trial_rng.uniform_int(500, 8000));
    cp.downlink_delay =
        util::SimTime::microseconds(trial_rng.uniform_int(500, 8000));
    const util::SimTime lookahead =
        std::min(cp.uplink_delay, cp.downlink_delay);
    // A random window in (0, lookahead]; windows narrower than the
    // lookahead must only add slack, never change results.
    cp.window = util::SimTime::nanoseconds(
        trial_rng.uniform_int(1, lookahead.ns()));
    cp.agent_params.observation_period = SimTime::seconds(2);
    cp.seed = 40 + static_cast<std::uint64_t>(trial);
    std::vector<double> rates;
    for (int s = 0; s < cp.stub_count; ++s) {
      rates.push_back(static_cast<double>(trial_rng.uniform_int(5, 30)));
    }

    std::string digests[2];
    for (const int workers : {1, 3}) {
      campaign::CampaignSim sim(cp);
      for (int s = 0; s < cp.stub_count; ++s) {
        sim.start_wire_background(s, rates[static_cast<std::size_t>(s)],
                                  SimTime::zero(), SimTime::seconds(8));
      }
      std::vector<SimTime> times;
      double t = 2.0;
      while (t < 6.0) {
        times.push_back(SimTime::from_seconds(t));
        t += 0.02;
      }
      sim.launch_flood(0, 1, times,
                       *net::Ipv4Prefix::parse("240.0.0.0/8"));
      sim.run_until(SimTime::seconds(10), workers);

      // The conservative protocol's core invariant: every mailbox
      // record was injected at-or-after the barrier that carried it.
      EXPECT_GE(sim.min_injection_margin(), util::SimTime::zero());
      EXPECT_GT(sim.cross_stats().to_victim, 0u);
      EXPECT_GT(sim.cross_stats().barriers, 100u);
      digests[workers == 1 ? 0 : 1] = sim.state_digest();
    }
    EXPECT_EQ(digests[0], digests[1]);
  }
}

}  // namespace
}  // namespace syndog
