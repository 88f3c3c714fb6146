// Fleet telemetry backend: syndog-tsf/1 round-trip, damage tolerance and
// stream failures, the TelemetrySink, FleetRecorder's sampling cadence and
// its live-DES slot, rollups, and the zero-allocation guarantee on the
// producer path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/fleet.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/fault/chaos.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/sim/network.hpp"
#include "syndog/telemetry/rollup.hpp"
#include "syndog/telemetry/sink.hpp"
#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

#include "support/alloc_guard.hpp"

namespace {

using syndog::core::FleetRecorder;
using syndog::core::SynDogParams;
using syndog::telemetry::ReadEnd;
using syndog::telemetry::TelemetrySink;
using syndog::telemetry::TsfReader;
using syndog::telemetry::TsfSample;
using syndog::telemetry::TsfWriter;
using syndog::util::Rng;
using syndog::util::SimTime;

// ------------------------------------------------------------ tsf format

/// Writes a small two-agent file and returns the bytes.
std::string write_sample_file(std::size_t block_capacity = 4) {
  std::ostringstream out;
  TsfWriter writer(out, block_capacity);
  const std::uint32_t stub_a = writer.add_agent("stub-a", 64512);
  const std::uint32_t stub_b = writer.add_agent("stub-b", 64513);
  const std::uint32_t m_k = writer.add_metric("k");
  const std::uint32_t m_alarm = writer.add_metric("alarm");
  const std::uint32_t s0 = writer.open_series(stub_a, m_k);
  const std::uint32_t s1 = writer.open_series(stub_b, m_k);
  const std::uint32_t s2 = writer.open_series(stub_a, m_alarm);
  for (int i = 0; i < 10; ++i) {
    writer.append(s0, SimTime::seconds(20 * (i + 1)), 100.0 + i);
    writer.append(s1, SimTime::seconds(20 * (i + 1)), 50.0 - i);
  }
  writer.append(s2, SimTime::seconds(60), 1.0);
  writer.append(s2, SimTime::seconds(120), 0.0);
  writer.finish();
  return out.str();
}

TEST(TsfFormatTest, RoundTripPreservesEverything) {
  const std::string bytes = write_sample_file();
  std::istringstream in(bytes);
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kEof);
  ASSERT_TRUE(reader.has_dictionaries());
  ASSERT_EQ(reader.agents().size(), 2u);
  EXPECT_EQ(reader.agents()[0].name, "stub-a");
  EXPECT_EQ(reader.agents()[0].as_number, 64512u);
  EXPECT_EQ(reader.agents()[1].name, "stub-b");
  ASSERT_EQ(reader.metrics().size(), 2u);
  EXPECT_EQ(reader.find_metric("k"), 0);
  EXPECT_EQ(reader.find_metric("alarm"), 1);
  EXPECT_EQ(reader.find_metric("nope"), -1);
  ASSERT_EQ(reader.series().size(), 3u);
  EXPECT_EQ(reader.total_samples(), 22u);
  ASSERT_EQ(reader.samples(0).size(), 10u);
  EXPECT_EQ(reader.samples(0)[3].at, SimTime::seconds(80));
  EXPECT_DOUBLE_EQ(reader.samples(0)[3].value, 103.0);
  EXPECT_DOUBLE_EQ(reader.samples(1)[9].value, 41.0);
  ASSERT_EQ(reader.samples(2).size(), 2u);
  EXPECT_DOUBLE_EQ(reader.samples(2)[0].value, 1.0);
  EXPECT_TRUE(reader.samples(99).empty());  // unknown id, no throw
}

TEST(TsfFormatTest, RandomizedRoundTripProperty) {
  Rng rng(20020820);
  for (int trial = 0; trial < 20; ++trial) {
    std::ostringstream out;
    const std::size_t block_capacity =
        static_cast<std::size_t>(rng.uniform_int(1, 32));
    TsfWriter writer(out, block_capacity);
    const int n_agents = static_cast<int>(rng.uniform_int(1, 5));
    const int n_metrics = static_cast<int>(rng.uniform_int(1, 4));
    for (int a = 0; a < n_agents; ++a) {
      writer.add_agent("agent" + std::to_string(a),
                       static_cast<std::uint32_t>(64512 + a % 3));
    }
    for (int m = 0; m < n_metrics; ++m) {
      writer.add_metric("metric" + std::to_string(m));
    }
    std::vector<std::vector<TsfSample>> expected;
    for (int a = 0; a < n_agents; ++a) {
      for (int m = 0; m < n_metrics; ++m) {
        writer.open_series(static_cast<std::uint32_t>(a),
                           static_cast<std::uint32_t>(m));
        expected.emplace_back();
      }
    }
    const int n_samples = static_cast<int>(rng.uniform_int(0, 400));
    std::int64_t t = 0;
    for (int i = 0; i < n_samples; ++i) {
      const auto sid = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(expected.size()) - 1));
      // Mostly forward steps, occasionally backwards (delta coding must
      // handle negative deltas), occasionally huge jumps.
      t += rng.uniform_int(-1'000'000, 50'000'000'000);
      const double v = rng.normal(0.0, 1e6);
      writer.append(sid, SimTime::nanoseconds(t), v);
      expected[sid].push_back(TsfSample{SimTime::nanoseconds(t), v});
    }
    writer.finish();

    std::istringstream in(out.str());
    TsfReader reader(in);
    ASSERT_EQ(reader.end(), ReadEnd::kEof) << "trial " << trial;
    ASSERT_TRUE(reader.has_dictionaries());
    ASSERT_EQ(reader.series().size(), expected.size());
    for (std::size_t sid = 0; sid < expected.size(); ++sid) {
      const auto& got = reader.samples(static_cast<std::uint32_t>(sid));
      ASSERT_EQ(got.size(), expected[sid].size()) << "trial " << trial;
      EXPECT_EQ(reader.series()[sid].samples, expected[sid].size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].at, expected[sid][i].at);
        EXPECT_DOUBLE_EQ(got[i].value, expected[sid][i].value);
      }
    }
  }
}

TEST(TsfFormatTest, NotATsfStreamThrows) {
  std::istringstream empty("");
  EXPECT_THROW(TsfReader{empty}, std::runtime_error);
  std::istringstream junk("this is not a telemetry file at all");
  EXPECT_THROW(TsfReader{junk}, std::runtime_error);
}

TEST(TsfFormatTest, TruncationRecoversIntactPrefix) {
  const std::string bytes = write_sample_file(/*block_capacity=*/4);
  // Cut everywhere from just past the header to just before the end; the
  // reader must never throw and never report a clean EOF.
  for (std::size_t cut = 16; cut < bytes.size(); cut += 3) {
    std::istringstream in(bytes.substr(0, cut));
    TsfReader reader(in);
    EXPECT_EQ(reader.end(), ReadEnd::kTruncated) << "cut at " << cut;
    EXPECT_LE(reader.total_samples(), 22u);
  }
  // Cutting exactly nothing is the clean file.
  std::istringstream whole(bytes);
  EXPECT_EQ(TsfReader(whole).end(), ReadEnd::kEof);
}

TEST(TsfFormatTest, TruncationMidBlocksKeepsEarlierBlocks) {
  const std::string bytes = write_sample_file(/*block_capacity=*/4);
  // With block capacity 4 and 10 appends per k-series, two full blocks per
  // k-series flush during the run (interleaved: s0,s1,s0,s1). Cut right
  // after the second block and the first block's 4 samples must survive.
  // Block size: 20-byte header + varint timestamps + 8 bytes per value.
  std::size_t block_end = 16;
  for (int skipped = 0; skipped < 2; ++skipped) {
    const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t payload_len =
        static_cast<std::size_t>(base[block_end + 12]) |
        static_cast<std::size_t>(base[block_end + 13]) << 8 |
        static_cast<std::size_t>(base[block_end + 14]) << 16 |
        static_cast<std::size_t>(base[block_end + 15]) << 24;
    block_end += 20 + payload_len;
  }
  std::istringstream in(bytes.substr(0, block_end + 5));
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kTruncated);
  EXPECT_EQ(reader.blocks_read(), 2u);
  EXPECT_EQ(reader.samples(0).size(), 4u);
  EXPECT_EQ(reader.samples(1).size(), 4u);
  EXPECT_FALSE(reader.has_dictionaries());
}

TEST(TsfFormatTest, GarbageTailAfterTrailerIsTruncatedVerdict) {
  std::string bytes = write_sample_file();
  bytes += "garbage garbage garbage";
  std::istringstream in(bytes);
  TsfReader reader(in);
  // The trailer is no longer at EOF, so dictionaries are unavailable, but
  // every data block still decodes.
  EXPECT_EQ(reader.end(), ReadEnd::kTruncated);
  EXPECT_FALSE(reader.has_dictionaries());
  EXPECT_EQ(reader.total_samples(), 22u);
}

TEST(TsfFormatTest, CorruptBlockPayloadDropsSuffix) {
  std::string bytes = write_sample_file(/*block_capacity=*/4);
  bytes[16 + 20 + 2] ^= 0x40;  // flip a bit inside the first block payload
  std::istringstream in(bytes);
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kTruncated);  // checksum catches it
  EXPECT_EQ(reader.blocks_read(), 0u);
  // The footer still names everything even though the data is gone.
  EXPECT_TRUE(reader.has_dictionaries());
  EXPECT_EQ(reader.agents().size(), 2u);
}

TEST(TsfFormatTest, CorruptFooterLosesDictionariesNotData) {
  std::string bytes = write_sample_file();
  // The footer payload sits between the last block and the 16-byte
  // trailer; flip a byte 20 bytes before the trailer (inside the footer).
  bytes[bytes.size() - 20] ^= 0x01;
  std::istringstream in(bytes);
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kTruncated);
  EXPECT_FALSE(reader.has_dictionaries());
  EXPECT_EQ(reader.total_samples(), 22u);  // blocks unaffected
  EXPECT_TRUE(reader.agents().empty());
  // Synthesized directory still addresses recovered series by id.
  EXPECT_EQ(reader.series().size(), 3u);
}

TEST(TsfFormatTest, ImpossibleSampleCountIsDamage) {
  std::string bytes = write_sample_file(/*block_capacity=*/4);
  // The payload checksum does not cover a block header's sample count.
  // Set the third block's count to 0xFFFFFFFF: the reader must drop that
  // block and its suffix as damage, not size a buffer from the count.
  std::size_t block = 16;
  for (int skipped = 0; skipped < 2; ++skipped) {
    std::uint32_t payload_len = 0;
    for (int i = 3; i >= 0; --i) {
      payload_len = payload_len << 8 |
                    static_cast<unsigned char>(bytes[block + 12 + i]);
    }
    block += 20 + payload_len;
  }
  bytes.replace(block + 8, 4, 4, '\xff');
  std::istringstream in(bytes);
  std::optional<TsfReader> reader;
  ASSERT_NO_THROW(reader.emplace(in));
  EXPECT_EQ(reader->end(), ReadEnd::kTruncated);
  EXPECT_EQ(reader->blocks_read(), 2u);
  EXPECT_EQ(reader->samples(0).size(), 4u);
  EXPECT_EQ(reader->samples(1).size(), 4u);
  EXPECT_EQ(reader->total_samples(), 8u);
}

TEST(TsfFormatTest, BlockSeriesIdOutsideTheFooterIsDamage) {
  std::ostringstream out;
  TsfWriter writer(out);
  const std::uint32_t series =
      writer.open_series(writer.add_agent("stub-a", 64512),
                         writer.add_metric("k"));
  for (int i = 0; i < 8; ++i) {
    writer.append(series, SimTime::seconds(20 * (i + 1)), 100.0 + i);
  }
  writer.finish();
  std::string bytes = out.str();
  // The payload checksum does not cover a block header's series id. Flip
  // bit 19 of the one block's id: series 2^19 is not in the footer's
  // one-series directory, so the block is damage, not a new series.
  bytes[16 + 4 + 2] ^= 0x08;
  std::istringstream in(bytes);
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kTruncated);
  EXPECT_EQ(reader.blocks_read(), 0u);
  EXPECT_EQ(reader.total_samples(), 0u);
  EXPECT_EQ(reader.series().size(), 1u);
}

TEST(TsfFormatTest, FinishThrowsWhenTheStreamFails) {
  std::ostringstream out;
  {
    TsfWriter writer(out, /*block_capacity=*/4);
    const std::uint32_t series =
        writer.open_series(writer.add_agent("stub-a", 64512),
                           writer.add_metric("k"));
    for (int i = 0; i < 6; ++i) {
      writer.append(series, SimTime::seconds(20 * (i + 1)), 100.0 + i);
    }
    out.setstate(std::ios::badbit);
    EXPECT_THROW(writer.finish(), std::runtime_error);
    EXPECT_TRUE(writer.finished());
    // The failed finish already counts: nothing is written a second time,
    // by another finish() or by the destructor.
    const std::size_t written = out.str().size();
    out.clear();
    writer.finish();
    EXPECT_EQ(out.str().size(), written);
  }
  // A sink whose stream fails and is never finished explicitly: the
  // implicit finish in its destruction must not throw.
  std::ostringstream sink_out;
  {
    TelemetrySink sink(sink_out);
    const std::uint32_t agent = sink.register_agent("stub", 64512);
    sink.push(sink.series_id(agent, sink.metric_id("k")),
              SimTime::seconds(20), 1.0);
    sink_out.setstate(std::ios::badbit);
  }
  EXPECT_TRUE(sink_out.bad());
}

TEST(TsfFormatTest, EmptyFileIsCleanEof) {
  std::ostringstream out;
  TsfWriter writer(out);
  writer.finish();
  std::istringstream in(out.str());
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kEof);
  EXPECT_TRUE(reader.has_dictionaries());
  EXPECT_EQ(reader.total_samples(), 0u);
}

// ---------------------------------------------------------------- sink

/// Drives the same deterministic mini-campaign through a sink and returns
/// the file bytes plus final stats.
std::string run_campaign(std::uint64_t seed,
                         syndog::telemetry::SinkStats* stats_out = nullptr) {
  std::ostringstream out;
  TelemetrySink sink(out, /*block_capacity=*/64);
  FleetRecorder fleet(sink);
  Rng rng(seed);
  for (int a = 0; a < 8; ++a) {
    fleet.add_agent("stub" + std::to_string(a),
                    static_cast<std::uint32_t>(64512 + a / 4),
                    SynDogParams{});
  }
  for (int period = 0; period < 200; ++period) {
    const SimTime at = SimTime::seconds(20 * (period + 1));
    for (std::size_t a = 0; a < fleet.agent_count(); ++a) {
      const std::int64_t syn_acks = rng.poisson(40.0);
      // Agent 7 turns hostile for 30 periods mid-run.
      const bool flooding = a == 7 && period >= 120 && period < 150;
      const std::int64_t syns =
          syn_acks + rng.poisson(2.0) + (flooding ? 60 : 0);
      fleet.observe(a, syns, syn_acks, at);
    }
  }
  sink.finish();
  if (stats_out != nullptr) *stats_out = sink.stats();
  return out.str();
}

TEST(TelemetrySinkTest, InlineCampaignRoundTrips) {
  syndog::telemetry::SinkStats stats;
  const std::string bytes = run_campaign(7, &stats);
  EXPECT_GT(stats.blocks, 0u);
  std::istringstream in(bytes);
  TsfReader reader(in);
  EXPECT_EQ(reader.end(), ReadEnd::kEof);
  EXPECT_EQ(reader.agents().size(), 8u);
  EXPECT_EQ(reader.total_samples(), stats.drained);

  const auto timeline = syndog::telemetry::alarm_timeline(reader, "alarm");
  EXPECT_EQ(timeline.agents_alarmed, 1u);  // only the flooding stub
  ASSERT_GE(timeline.rising_edges, 1u);
  const auto first =
      syndog::telemetry::first_alarm(timeline, /*agent=*/7);
  ASSERT_TRUE(first.has_value());
  // The flood starts at period 120 (t = 2420 s); CUSUM needs ~2 periods.
  EXPECT_GT(*first, SimTime::seconds(2400));
  EXPECT_LT(*first, SimTime::seconds(2700));
}

TEST(TelemetrySinkTest, SameSeedSameBytes) {
  EXPECT_EQ(run_campaign(41), run_campaign(41));
  EXPECT_NE(run_campaign(41), run_campaign(42));
}

TEST(TelemetrySinkTest, PushAfterFinishThrows) {
  std::ostringstream out;
  TelemetrySink sink(out);
  const std::uint32_t agent = sink.register_agent("stub", 64512);
  const std::uint32_t series = sink.series_id(agent, sink.metric_id("k"));
  sink.push(series, SimTime::seconds(20), 1.0);
  sink.finish();
  sink.finish();  // idempotent
  EXPECT_THROW(sink.push(series, SimTime::seconds(40), 2.0),
               std::logic_error);
}

// -------------------------------------------------------- fleet cadence

TEST(FleetRecorderTest, HeartbeatDecimatesAndEdgesForceFullSets) {
  constexpr std::int64_t kHeartbeat = 10;
  constexpr std::int64_t kPeriods = 100;
  std::ostringstream out;
  TelemetrySink sink(out);
  std::vector<std::int64_t> edge_periods;
  {
    FleetRecorder fleet(sink, FleetRecorder::Cadence{kHeartbeat});
    fleet.add_agent("stub", 64512, SynDogParams{});
    bool alarm = false;
    for (std::int64_t period = 0; period < kPeriods; ++period) {
      // Balanced handshakes, except a five-period flood that doubles
      // the SYNs: the alarm rises during it and clears after it.
      const bool flooding = period >= 33 && period < 38;
      const auto report = fleet.observe(0, flooding ? 200 : 100, 100,
                                        SimTime::seconds(20 * (period + 1)));
      if (report.alarm != alarm) edge_periods.push_back(period);
      alarm = report.alarm;
    }
  }
  sink.finish();
  ASSERT_EQ(edge_periods.size(), 2u);  // one raise, one clear

  std::vector<std::int64_t> expected_k;  // heartbeats plus edge periods
  for (std::int64_t period = 0; period < kPeriods; ++period) {
    if (period % kHeartbeat == 0 ||
        std::find(edge_periods.begin(), edge_periods.end(), period) !=
            edge_periods.end()) {
      expected_k.push_back(period);
    }
  }
  // Both edges fall between heartbeats, so each forces an extra full set.
  ASSERT_EQ(expected_k.size(),
            static_cast<std::size_t>(kPeriods / kHeartbeat) + 2);

  std::istringstream in(out.str());
  TsfReader reader(in);
  ASSERT_EQ(reader.end(), ReadEnd::kEof);
  const auto samples_of = [&](std::string_view metric) {
    const std::int64_t id = reader.find_metric(metric);
    for (std::uint32_t s = 0; s < reader.series().size(); ++s) {
      if (reader.series()[s].metric == id) return reader.samples(s);
    }
    ADD_FAILURE() << "no series for " << metric;
    return std::vector<TsfSample>{};
  };
  const auto alarm = samples_of("alarm");
  ASSERT_EQ(alarm.size(), 2u);
  EXPECT_EQ(alarm[0].at, SimTime::seconds(20 * (edge_periods[0] + 1)));
  EXPECT_DOUBLE_EQ(alarm[0].value, 1.0);
  EXPECT_EQ(alarm[1].at, SimTime::seconds(20 * (edge_periods[1] + 1)));
  EXPECT_DOUBLE_EQ(alarm[1].value, 0.0);
  const auto k = samples_of("k");
  ASSERT_EQ(k.size(), expected_k.size());
  for (std::size_t i = 0; i < k.size(); ++i) {
    EXPECT_EQ(k[i].at, SimTime::seconds(20 * (expected_k[i] + 1)))
        << "sample " << i;
  }
  EXPECT_TRUE(samples_of("health").empty());  // fast-forward: no edges

  std::ostringstream unused;
  TelemetrySink other(unused);
  EXPECT_THROW(FleetRecorder(other, FleetRecorder::Cadence{0}),
               std::invalid_argument);
}

TEST(FleetRecorderTest, AttachMirrorsAgentHistoryAndEdges) {
  // A live stub (3 conn/s from 10 hosts) whose tap goes dark for two
  // minutes — blind periods, then quarantine and recovery — and which
  // later emits a floor-rate flood. The bounded-CUSUM cap lets the alarm
  // clear within a few periods of the flood's end, so the run carries
  // both alarm edges and both health edges.
  syndog::sim::StubNetworkParams net_params;
  net_params.num_hosts = 10;
  net_params.cloud.no_answer_probability = 0.05;
  net_params.seed = 21;
  syndog::sim::StubNetworkSim network(net_params);
  SynDogParams params = SynDogParams::paper_defaults();
  params.statistic_cap = 2.0;
  syndog::core::SynDogAgent agent(network.router(), network.scheduler(),
                                  params);
  syndog::obs::Registry registry;
  agent.attach_observer(registry);

  syndog::fault::FaultSchedule faults;
  faults.tap_outage(SimTime::seconds(120), SimTime::seconds(240));
  syndog::fault::ChaosController chaos(network, std::move(faults), 7);
  chaos.set_outage_listener([&agent](SimTime, bool active) {
    agent.notify_sniffer_outage(active);
  });
  Rng background(33);
  std::vector<SimTime> starts;
  for (double t = background.exponential_mean(1.0 / 3.0); t < 12 * 60.0;
       t += background.exponential_mean(1.0 / 3.0)) {
    starts.push_back(SimTime::from_seconds(t));
  }
  network.schedule_outbound_background(starts);
  syndog::attack::FloodSpec flood;
  flood.rate = 37.0;
  flood.start = SimTime::minutes(6);
  flood.duration = SimTime::minutes(3);
  Rng flood_rng(41);
  network.launch_flood(
      4, syndog::attack::generate_flood_times(flood, flood_rng),
      syndog::net::Ipv4Address(198, 51, 100, 7), 80,
      *syndog::net::Ipv4Prefix::parse("203.0.113.0/24"));

  // What the agent hands its period callbacks, to derive the edges.
  std::vector<SimTime> fed_at;
  std::vector<double> fed_health;
  agent.add_period_callback([&](const syndog::core::PeriodReport&,
                                syndog::core::AgentHealth health,
                                SimTime at) {
    fed_at.push_back(at);
    fed_health.push_back(static_cast<double>(health));
  });

  std::ostringstream out;
  TelemetrySink sink(out);
  FleetRecorder fleet(sink, FleetRecorder::Cadence{1});
  fleet.attach(agent, "stub", 64512);
  network.run_until(SimTime::minutes(12));
  sink.finish();

  const std::vector<syndog::core::PeriodReport>& history = agent.history();
  ASSERT_EQ(history.size(), fed_at.size());
  EXPECT_GT(agent.blind_periods(), 0);
  EXPECT_EQ(registry.counter("syndog.periods").value(), history.size());

  std::vector<TsfSample> alarm_edges;
  std::vector<TsfSample> health_edges;
  bool alarm = false;
  double health = 0.0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].alarm != alarm) {
      alarm = history[i].alarm;
      alarm_edges.push_back({fed_at[i], alarm ? 1.0 : 0.0});
    }
    if (fed_health[i] != health) {
      health = fed_health[i];
      health_edges.push_back({fed_at[i], health});
    }
  }
  ASSERT_EQ(alarm_edges.size(), 2u);  // one raise, one clear
  ASSERT_EQ(health_edges.size(), 2u);  // quarantined, then healed

  std::istringstream in(out.str());
  TsfReader reader(in);
  ASSERT_EQ(reader.end(), ReadEnd::kEof);
  const auto samples_of = [&](std::string_view metric) {
    const std::int64_t id = reader.find_metric(metric);
    for (std::uint32_t s = 0; s < reader.series().size(); ++s) {
      if (reader.series()[s].metric == id) return reader.samples(s);
    }
    ADD_FAILURE() << "no series for " << metric;
    return std::vector<TsfSample>{};
  };
  const auto expect_series = [&](std::string_view metric, auto value_of) {
    const std::vector<TsfSample> got = samples_of(metric);
    ASSERT_EQ(got.size(), history.size()) << metric;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].at, fed_at[i]) << metric << " period " << i;
      EXPECT_EQ(got[i].value, value_of(history[i]))
          << metric << " period " << i;
    }
  };
  using Report = syndog::core::PeriodReport;
  expect_series("syn", [](const Report& r) {
    return static_cast<double>(r.syn_count);
  });
  expect_series("syn_ack", [](const Report& r) {
    return static_cast<double>(r.syn_ack_count);
  });
  expect_series("k", [](const Report& r) { return r.k_estimate; });
  expect_series("y", [](const Report& r) { return r.y; });
  const auto same_edges = [](const std::vector<TsfSample>& got,
                             const std::vector<TsfSample>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].at, want[i].at) << "edge " << i;
      EXPECT_EQ(got[i].value, want[i].value) << "edge " << i;
    }
  };
  same_edges(samples_of("alarm"), alarm_edges);
  same_edges(samples_of("health"), health_edges);
}

// ------------------------------------------------------- allocation guard

TEST(TelemetryAllocTest, InlineAppendIsAllocationFreeBetweenFlushes) {
  std::ostringstream out;
  TelemetrySink sink(out, /*block_capacity=*/1 << 16);
  const std::uint32_t agent = sink.register_agent("stub", 64512);
  const std::uint32_t series = sink.series_id(agent, sink.metric_id("k"));
  sink.push(series, SimTime::seconds(20), 1.0);

  syndog::testsupport::AllocGuard guard;
  for (int i = 0; i < 10'000; ++i) {
    sink.push(series, SimTime::seconds(20 * (i + 2)),
              static_cast<double>(i));
  }
  EXPECT_EQ(guard.stop(), 0u);
  sink.finish();
}

// --------------------------------------------------------------- rollups

TEST(RollupTest, DriftAndHealthAndCsv) {
  std::ostringstream out;
  TelemetrySink sink(out);
  const std::uint32_t a0 = sink.register_agent("stub-a", 64512);
  const std::uint32_t a1 = sink.register_agent("stub-b", 64513);
  const std::uint32_t m_k = sink.metric_id("k");
  const std::uint32_t m_health = sink.metric_id("health");
  const std::uint32_t s_k0 = sink.series_id(a0, m_k);
  const std::uint32_t s_k1 = sink.series_id(a1, m_k);
  const std::uint32_t s_h1 = sink.series_id(a1, m_health);
  for (int i = 0; i < 6; ++i) {
    sink.push(s_k0, SimTime::minutes(i), 100.0 + i);
    sink.push(s_k1, SimTime::minutes(i), 10.0);
  }
  sink.push(s_h1, SimTime::minutes(2), 1.0);  // stub-b degrades
  sink.finish();

  std::istringstream in(out.str());
  TsfReader reader(in);
  ASSERT_EQ(reader.end(), ReadEnd::kEof);

  // Two-minute buckets over six minutes → three points, both agents mixed.
  const auto drift =
      syndog::telemetry::metric_drift(reader, "k", SimTime::minutes(2));
  ASSERT_EQ(drift.size(), 3u);
  EXPECT_EQ(drift[0].bucket_start, SimTime::zero());
  EXPECT_EQ(drift[0].samples, 4u);
  EXPECT_DOUBLE_EQ(drift[0].min, 10.0);
  EXPECT_DOUBLE_EQ(drift[0].max, 101.0);
  EXPECT_DOUBLE_EQ(drift[0].mean, (100.0 + 101.0 + 10.0 + 10.0) / 4.0);
  // Restricted to stub-a's AS.
  const auto drift_as = syndog::telemetry::metric_drift(
      reader, "k", SimTime::minutes(2), 64512);
  ASSERT_EQ(drift_as.size(), 3u);
  EXPECT_EQ(drift_as[0].samples, 2u);

  const auto health = syndog::telemetry::health_summary(reader, "health");
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0].as_number, 64512u);
  EXPECT_EQ(health[0].healthy, 1u);
  EXPECT_EQ(health[1].as_number, 64513u);
  EXPECT_EQ(health[1].degraded, 1u);
  EXPECT_EQ(health[1].transitions, 1u);

  const std::string csv = syndog::telemetry::drift_csv(drift);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "bucket_t_s,mean,min,max,samples");
  const std::string health_csv = syndog::telemetry::health_csv(health);
  EXPECT_NE(health_csv.find("64513,1,0,1,0,1"), std::string::npos);

  const std::string json = syndog::telemetry::fleet_summary_json(reader);
  EXPECT_NE(json.find("\"format\":\"syndog-tsf/1\""), std::string::npos);
  EXPECT_NE(json.find("\"read_end\":\"eof\""), std::string::npos);
  EXPECT_NE(json.find("\"64512\":1"), std::string::npos);
}

TEST(RollupTest, AlarmTimelineOrderedByAsAgentTime) {
  std::ostringstream out;
  TelemetrySink sink(out);
  const std::uint32_t a0 = sink.register_agent("late", 64513);
  const std::uint32_t a1 = sink.register_agent("early", 64512);
  const std::uint32_t m_alarm = sink.metric_id("alarm");
  const std::uint32_t s0 = sink.series_id(a0, m_alarm);
  const std::uint32_t s1 = sink.series_id(a1, m_alarm);
  sink.push(s0, SimTime::seconds(100), 1.0);
  sink.push(s1, SimTime::seconds(500), 1.0);
  sink.push(s1, SimTime::seconds(600), 0.0);
  sink.finish();

  std::istringstream in(out.str());
  TsfReader reader(in);
  const auto timeline = syndog::telemetry::alarm_timeline(reader, "alarm");
  ASSERT_EQ(timeline.edges.size(), 3u);
  EXPECT_EQ(timeline.agents_alarmed, 2u);
  // AS 64512 (agent "early") sorts first despite alarming later.
  EXPECT_EQ(timeline.edges[0].as_number, 64512u);
  EXPECT_EQ(timeline.edges[0].at, SimTime::seconds(500));
  EXPECT_EQ(timeline.edges[2].as_number, 64513u);
  const std::string csv =
      syndog::telemetry::alarm_timeline_csv(reader, timeline);
  EXPECT_NE(csv.find("64512,early,500,raise"), std::string::npos);
  EXPECT_NE(csv.find("64512,early,600,clear"), std::string::npos);
  EXPECT_NE(csv.find("64513,late,100,raise"), std::string::npos);
}

}  // namespace
