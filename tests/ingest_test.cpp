// Streaming capture-ingest tests: ring wraparound, the ReplayEngine pump
// (delivery order, damaged captures, zero steady-state allocation),
// replay/manual-loop equivalence, and the sharded datapath against the
// single-threaded reference (the sharded suite also runs under tsan in
// CI).
#include <gtest/gtest.h>

#include "support/alloc_guard.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/sharded.hpp"
#include "syndog/ingest/stub_router.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::ingest {
namespace {

using util::SimTime;

net::Packet sample_packet(std::uint32_t host, bool syn_ack) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0);
  if (syn_ack) {
    spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
    spec.dst_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
    spec.src_port = 80;
    spec.dst_port = static_cast<std::uint16_t>(30000 + host);
    return net::make_syn_ack(spec);
  }
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(30000 + host);
  spec.dst_port = 80;
  return net::make_syn(spec);
}

/// A wire-realistic capture: outbound SYNs and inbound SYN/ACKs with
/// increasing timestamps, `frames` records over `span`.
std::string make_capture(std::size_t frames, SimTime span,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  for (std::size_t i = 0; i < frames; ++i) {
    const auto at = SimTime::nanoseconds(
        static_cast<std::int64_t>(i) * span.ns() /
        static_cast<std::int64_t>(frames));
    const bool syn_ack = rng.uniform() < 0.5;
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(at, net::encode_frame(sample_packet(host, syn_ack)));
  }
  writer.flush();
  return std::move(out).str();
}

// ---------------------------------------------------------------------
// SlotRing of Frames

TEST(FrameRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SlotRing<Frame>(1).capacity(), 2u);
  EXPECT_EQ(SlotRing<Frame>(5).capacity(), 8u);
  EXPECT_EQ(SlotRing<Frame>(64).capacity(), 64u);
  EXPECT_THROW(SlotRing<Frame>(0), std::invalid_argument);
}

TEST(FrameRingTest, WraparoundPreservesOrderAndContent) {
  SlotRing<Frame> ring(4);
  std::uint32_t produced = 0;
  std::uint32_t consumed = 0;
  util::Rng rng(11);
  // Push/pop in randomized bursts so head/tail lap the array many times.
  while (consumed < 1000) {
    const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    for (std::uint32_t i = 0; i < burst; ++i) {
      Frame* slot = ring.try_claim();
      if (slot == nullptr) break;
      slot->wire_bytes = produced;
      slot->at = SimTime::nanoseconds(produced);
      ++produced;
      ring.publish();
    }
    const auto drain = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    for (std::uint32_t i = 0; i < drain && !ring.empty(); ++i) {
      const std::span<const Frame> run = ring.readable();
      ASSERT_FALSE(run.empty());
      ASSERT_EQ(run.front().wire_bytes, consumed);
      ++consumed;
      ring.release(1);
    }
  }
  EXPECT_LE(ring.size(), ring.capacity());
}

TEST(FrameRingTest, SteadyStateProduceConsumeDoesNotAllocate) {
  // The ring's slot arena is sized once at construction; claiming,
  // publishing, reading, and releasing frames afterwards must never
  // touch the heap (the runtime twin of the hotpath.allocation lint
  // rule on frame_ring.hpp).
  SlotRing<Frame> ring(64);
  std::uint32_t produced = 0;
  util::Rng rng(23);

  auto churn = [&](std::uint32_t rounds) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 48));
      for (std::uint32_t i = 0; i < burst; ++i) {
        Frame* slot = ring.try_claim();
        if (slot == nullptr) break;
        slot->wire_bytes = produced;
        slot->at = SimTime::nanoseconds(produced);
        ++produced;
        ring.publish();
      }
      while (!ring.empty()) {
        const std::span<const Frame> run = ring.readable();
        ring.release(run.size());
      }
    }
  };

  churn(16);  // warm-up: every slot written at least once
  testsupport::AllocGuard guard;
  churn(512);
  EXPECT_EQ(guard.stop(), 0u)
      << "steady-state ring traffic must not touch the heap";
  EXPECT_GT(produced, 1000u);
}

TEST(FrameRingTest, FullRingRefusesClaim) {
  SlotRing<Frame> ring(2);
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  EXPECT_EQ(ring.try_claim(), nullptr);
  ring.release(1);
  EXPECT_NE(ring.try_claim(), nullptr);
}

TEST(FrameRingTest, CommittedSlotsStayHiddenUntilFlush) {
  SlotRing<Frame> ring(4);
  for (std::uint32_t i = 0; i < 3; ++i) {
    Frame* slot = ring.try_claim();
    ASSERT_NE(slot, nullptr);
    slot->wire_bytes = i;
    EXPECT_EQ(ring.commit(), i + 1);  // pending slots, this one included
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.readable().empty());
  ring.flush();
  const std::span<const Frame> run = ring.readable();
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run.back().wire_bytes, 2u);
  // A pending slot holds its place: with one published slot released and
  // one more committed, the ring is full again before any flush.
  ring.release(1);
  ASSERT_NE(ring.try_claim(), nullptr);
  EXPECT_EQ(ring.commit(), 1u);
  ASSERT_NE(ring.try_claim(), nullptr);
  EXPECT_EQ(ring.commit(), 2u);
  EXPECT_EQ(ring.try_claim(), nullptr);
  EXPECT_EQ(ring.size(), 2u);
  ring.flush();
  EXPECT_EQ(ring.size(), 4u);
}

TEST(FrameRingTest, BatchedPublishAcrossThreadsKeepsOrder) {
  // One producer thread commits in batches of 5 and flushes before it
  // waits on a full ring, as ShardedReplay's producer does; the consumer
  // must see every slot once, in order, through a ring smaller than a
  // batch.
  SlotRing<Frame> ring(4);
  constexpr std::uint32_t kSlots = 20000;
  std::thread producer([&ring] {
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      Frame* slot = ring.try_claim();
      if (slot == nullptr) {
        ring.flush();
        do {
          std::this_thread::yield();
          slot = ring.try_claim();
        } while (slot == nullptr);
      }
      slot->wire_bytes = i;
      if (ring.commit() == 5) ring.flush();
    }
    ring.flush();
  });
  std::uint32_t next = 0;
  std::uint32_t out_of_order = 0;
  while (next < kSlots) {
    const std::span<const Frame> run = ring.readable();
    if (run.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (const Frame& f : run) out_of_order += f.wire_bytes != next++;
    ring.release(run.size());
  }
  producer.join();
  EXPECT_EQ(next, kSlots);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_TRUE(ring.empty());
}

TEST(FrameRingTest, OverReleaseThrows) {
  SlotRing<Frame> ring(4);
  EXPECT_THROW(ring.release(1), std::logic_error);
}

TEST(FrameRingTest, CapacityErrorMessageExplainsConstraint) {
  try {
    SlotRing<Frame> ring(0);
    FAIL() << "zero capacity must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SlotRing: capacity must be positive (a zero-capacity "
                 "ring could never publish a slot)");
  }
  // Past 2^63 slots the power-of-two round-up does not fit in a size_t;
  // the constructor refuses before it allocates anything.
  try {
    SlotRing<net::FlowDigest> ring(SIZE_MAX);
    FAIL() << "a capacity with no power-of-two round-up must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SlotRing: capacity must round up to a power of two that "
                 "fits in std::size_t");
  }
}

TEST(FrameRingTest, ReleaseOverflowMessageAndPartialOverflow) {
  SlotRing<Frame> ring(4);
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  // Releasing more than the published count must throw without moving
  // the tail cursor: the two published slots stay readable afterwards.
  try {
    ring.release(3);
    FAIL() << "over-release must throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "SlotRing: releasing more slots than are readable "
                 "(release(n) must not exceed the published count)");
  }
  EXPECT_EQ(ring.size(), 2u);
  ring.release(2);
  EXPECT_TRUE(ring.empty());
  // The boundary is exact: an empty ring rejects release(1) but a
  // same-size release succeeds.
  EXPECT_THROW(ring.release(1), std::logic_error);
}

// ---------------------------------------------------------------------
// Symmetric flow hash

TEST(FlowHashTest, SymmetricUnderDirectionReversal) {
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const auto src = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int32_t>::max()));
    const auto dst = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int32_t>::max()));
    const auto sport = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto dport = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto proto = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(flow_hash(src, sport, dst, dport, proto),
              flow_hash(dst, dport, src, sport, proto));
  }
}

TEST(FlowHashTest, SynAndSynAckOfOneFlowNeverSplitShards) {
  // A flow's SYN and the SYN-ACK coming back swap src/dst; for every
  // shard count the two must land on the same ring, or a consumer
  // thread would see half a flow.
  util::Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(2);
    spec.src_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    spec.dst_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    spec.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    const net::ByteBuffer syn = net::encode_frame(net::make_syn(spec));
    std::swap(spec.src_ip, spec.dst_ip);
    std::swap(spec.src_port, spec.dst_port);
    const net::ByteBuffer syn_ack =
        net::encode_frame(net::make_syn_ack(spec));

    net::FlowDigest d_syn;
    net::FlowDigest d_syn_ack;
    ASSERT_TRUE(net::extract_flow_digest(syn, d_syn));
    ASSERT_TRUE(net::extract_flow_digest(syn_ack, d_syn_ack));
    const std::uint64_t h_syn = flow_hash(d_syn);
    const std::uint64_t h_syn_ack = flow_hash(d_syn_ack);
    EXPECT_EQ(h_syn, h_syn_ack);
    for (std::size_t shards = 1; shards <= 8; ++shards) {
      EXPECT_EQ(shard_of(h_syn, shards), shard_of(h_syn_ack, shards));
      EXPECT_LT(shard_of(h_syn, shards), shards);
    }
  }
}

TEST(FlowHashTest, DistinctFlowsSpreadAcrossShards) {
  // Not a distribution guarantee, but the mixer must not collapse the
  // regular address patterns synthetic traces use onto one shard.
  std::array<int, 4> load{};
  for (std::uint32_t host = 1; host <= 64; ++host) {
    const std::uint64_t h = flow_hash(
        0x0a010000U | host, static_cast<std::uint16_t>(30000 + host),
        0xc0000201U, 80, 6);
    ++load[shard_of(h, load.size())];
  }
  for (const int l : load) EXPECT_GT(l, 0) << "a shard got no flows";
}

// ---------------------------------------------------------------------
// CaptureSource

TEST(CaptureSourceTest, SniffsClassicPcap) {
  const std::string capture = make_capture(3, SimTime::seconds(1), 1);
  std::istringstream in(capture, std::ios::binary);
  CaptureSource source(in);
  EXPECT_EQ(source.format(), CaptureFormat::kPcap);
  pcap::Record rec;
  std::size_t n = 0;
  while (source.next(rec)) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(source.end_state(), pcap::ReadEnd::kEof);
}

TEST(CaptureSourceTest, SniffsPcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  writer.write(SimTime::seconds(1),
               net::encode_frame(sample_packet(1, false)));
  CaptureSource source(buf);
  EXPECT_EQ(source.format(), CaptureFormat::kPcapng);
  pcap::Record rec;
  EXPECT_TRUE(source.next(rec));
  EXPECT_FALSE(source.next(rec));
  EXPECT_EQ(source.end_state(), pcap::ReadEnd::kEof);
}

TEST(CaptureSourceTest, RejectsGarbage) {
  std::istringstream in("not a capture at all", std::ios::binary);
  EXPECT_THROW(CaptureSource source(in), std::runtime_error);
}

TEST(CaptureSourceTest, DispatchesOnMagic) {
  // One frame through each format: the sniffed reader must hand back the
  // written bytes and timestamp.
  const net::ByteBuffer frame = net::encode_frame(sample_packet(3, true));
  const auto read_one = [&frame](std::istream& in, CaptureFormat format) {
    CaptureSource source(in);
    EXPECT_EQ(source.format(), format);
    pcap::Record rec;
    ASSERT_TRUE(source.next(rec));
    EXPECT_EQ(rec.data, frame);
    EXPECT_EQ(rec.timestamp, SimTime::seconds(2));
    EXPECT_FALSE(source.next(rec));
  };
  std::stringstream classic;
  pcap::Writer(classic).write(SimTime::seconds(2), frame);
  read_one(classic, CaptureFormat::kPcap);
  std::stringstream modern;
  pcap::PcapngWriter(modern).write(SimTime::seconds(2), frame);
  read_one(modern, CaptureFormat::kPcapng);
}

// ---------------------------------------------------------------------
// The ingest pump: CaptureSource -> ReplayEngine -> ReplaySink

/// Counts delivered frames and checks they arrive in capture order.
class CountingSink final : public ReplaySink {
 public:
  void on_frame(SimTime at, const Frame& frame) override {
    in_order_ = in_order_ && at >= last_at_ && frame.at >= last_capture_at_;
    last_at_ = at;
    last_capture_at_ = frame.at;
    ++total_;
    bytes_ += frame.captured_bytes;
  }
  std::uint64_t total_ = 0;
  std::uint64_t bytes_ = 0;
  bool in_order_ = true;
  SimTime last_at_;
  SimTime last_capture_at_;
};

TEST(PipelineTest, DeliversEveryFrameInOrder) {
  const std::string capture = make_capture(500, SimTime::seconds(10), 2);
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  CountingSink sink;
  engine.add_sink(sink);
  const PipelineStats& stats = engine.run();
  EXPECT_EQ(sink.total_, 500u);
  EXPECT_TRUE(sink.in_order_);
  EXPECT_EQ(stats.frames, 500u);
  EXPECT_EQ(stats.records, 500u);
  EXPECT_EQ(stats.bytes, sink.bytes_);
  EXPECT_EQ(engine.frames_replayed(), 500u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(engine.end_state(), pcap::ReadEnd::kEof);
}

TEST(PipelineTest, TruncatedCaptureIsCountedNotSilent) {
  std::string capture = make_capture(20, SimTime::seconds(2), 4);
  capture.resize(capture.size() - 7);  // tear the last record
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  CountingSink sink;
  engine.add_sink(sink);
  obs::Registry registry;
  engine.attach_observer(registry);
  engine.run();
  EXPECT_EQ(sink.total_, 19u);
  EXPECT_TRUE(engine.stats().truncated);
  EXPECT_EQ(engine.end_state(), pcap::ReadEnd::kTruncated);
  EXPECT_EQ(registry.counter("ingest.truncated_captures").value(), 1u);
  EXPECT_EQ(registry.counter("ingest.frames").value(), 19u);
  EXPECT_EQ(registry.counter("ingest.records").value(), 19u);
}

TEST(PipelineTest, GarbageTailStopsWithTruncation) {
  // A valid capture followed by non-pcap bytes: the tail must terminate
  // the stream as damage, not crash or spin.
  std::string capture = make_capture(5, SimTime::seconds(1), 5);
  capture += "GARBAGE GARBAGE";  // 15 bytes: a torn record header
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  CountingSink sink;
  engine.add_sink(sink);
  engine.run();
  EXPECT_EQ(sink.total_, 5u);
  EXPECT_TRUE(engine.stats().truncated);
}

TEST(PipelineTest, SkipsUndecodableRecords) {
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  writer.write(SimTime::seconds(1),
               net::encode_frame(sample_packet(1, false)));
  const net::ByteBuffer junk(30, 0xEE);  // not an Ethernet/IPv4 frame
  writer.write(SimTime::seconds(2), junk);
  writer.write(SimTime::seconds(3),
               net::encode_frame(sample_packet(2, true)));
  const std::string capture = std::move(out).str();

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  CountingSink sink;
  engine.add_sink(sink);
  engine.run();
  EXPECT_EQ(engine.stats().records, 3u);
  EXPECT_EQ(engine.stats().frames, 2u);
  EXPECT_EQ(engine.stats().decode_failures, 1u);
  EXPECT_EQ(sink.total_, 2u);
}

// ---------------------------------------------------------------------
// ReplayEngine + AgentDemux vs the manual whole-file loop

struct ManualResult {
  std::vector<std::int64_t> syns;
  std::vector<std::int64_t> syn_acks;
  std::vector<bool> alarms;
};

/// A whole-file oracle for the demux: the capture in memory, periods
/// closed by timestamp comparison, a frame outbound iff its source is in
/// the stub or its destination is not. make_capture emits no LAN-local
/// frames, the one case where this rule and the StubRouter differ.
ManualResult manual_loop(const std::string& capture,
                         const core::SynDogParams& params) {
  ManualResult result;
  std::istringstream in(capture, std::ios::binary);
  pcap::Reader reader(in);
  const net::Ipv4Prefix stub = *net::Ipv4Prefix::parse("10.1.0.0/16");
  core::Sniffer outbound(core::SnifferRole::kOutbound);
  core::Sniffer inbound(core::SnifferRole::kInbound);
  core::SynDog dog(params);
  const SimTime t0 = params.observation_period;
  SimTime period_end = t0;
  const auto close_period = [&] {
    const core::PeriodReport r = dog.observe_period(
        static_cast<std::int64_t>(outbound.harvest()),
        static_cast<std::int64_t>(inbound.harvest()));
    result.syns.push_back(r.syn_count);
    result.syn_acks.push_back(r.syn_ack_count);
    result.alarms.push_back(r.alarm);
  };
  while (const auto rec = reader.next()) {
    while (rec->timestamp >= period_end) {
      close_period();
      period_end += t0;
    }
    net::Packet pkt;
    if (!net::decode_frame_into(rec->data, pkt)) continue;
    const bool outbound_dir =
        stub.contains(pkt.ip.src) || !stub.contains(pkt.ip.dst);
    if (outbound_dir) {
      outbound.on_packet(pkt);
    } else {
      inbound.on_packet(pkt);
    }
  }
  close_period();
  return result;
}

TEST(ReplayEquivalenceTest, DemuxMatchesManualLoopPerPeriod) {
  // 2000 frames over 130 s -> 6 full periods plus a partial seventh.
  const std::string capture =
      make_capture(2000, SimTime::seconds(130), 77);
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  const ManualResult manual = manual_loop(capture, params);

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(),
                   {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
                   params);
  engine.add_sink(demux);
  engine.run();
  demux.close_final_period();

  const auto& history = demux.agent(0).history();
  ASSERT_EQ(history.size(), manual.syns.size());
  ASSERT_EQ(history.size(), 7u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].syn_count, manual.syns[i]) << "period " << i;
    EXPECT_EQ(history[i].syn_ack_count, manual.syn_acks[i])
        << "period " << i;
    EXPECT_EQ(history[i].alarm, manual.alarms[i]) << "period " << i;
  }
}

TEST(ReplayEngineTest, AutoOriginRebasesAbsoluteTimestamps) {
  // Same frames, stamped as if captured in 2024: the engine must rebase
  // to the first frame instead of spinning years of period timers.
  const std::int64_t epoch_ns = 1'700'000'000LL * 1'000'000'000LL;
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  for (int i = 0; i < 10; ++i) {
    writer.write(SimTime::nanoseconds(epoch_ns + i * 1'000'000'000LL),
                 net::encode_frame(sample_packet(
                     static_cast<std::uint32_t>(i + 1), false)));
  }
  const std::string capture = std::move(out).str();
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  engine.run();
  EXPECT_EQ(engine.epoch().ns(), epoch_ns);
  EXPECT_EQ(engine.last_frame_at().ns(), 9'000'000'000LL);
  EXPECT_EQ(engine.frames_replayed(), 10u);
}

TEST(ReplayEngineTest, MultiStubDemuxRoutesBothDirections) {
  // Stub A floods an external victim; stub B only answers handshakes.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 400; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(0);
    spec.src_ip = net::Ipv4Address(10, 1, 0, 5);   // stub A
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);  // external
    spec.src_port = 1234;
    spec.dst_port = 80;
    writer.write(SimTime::nanoseconds(ns += 100'000'000),
                 net::encode_frame(net::make_syn(spec)));
    if (i % 4 == 0) {
      net::TcpPacketSpec reply;
      reply.src_mac = net::MacAddress::for_host(0);
      reply.dst_mac = net::MacAddress::for_host(2);
      reply.src_ip = net::Ipv4Address(192, 0, 2, 9);
      reply.dst_ip = net::Ipv4Address(10, 2, 0, 7);  // stub B
      reply.src_port = 80;
      reply.dst_port = 999;
      writer.write(SimTime::nanoseconds(ns),
                   net::encode_frame(net::make_syn_ack(reply)));
    }
  }
  const std::string capture = std::move(out).str();

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(),
                   {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "a"},
                    {*net::Ipv4Prefix::parse("10.2.0.0/16"), "b"}},
                   core::SynDogParams::paper_defaults());
  engine.add_sink(demux);
  engine.run();
  demux.close_final_period();

  // Stub A saw a one-sided SYN flood: its CUSUM must alarm. Stub B saw
  // only inbound SYN/ACKs: quiet.
  EXPECT_FALSE(demux.alarms(0).empty());
  EXPECT_TRUE(demux.alarms(1).empty());
  std::int64_t a_syns = 0;
  for (const auto& r : demux.agent(0).history()) a_syns += r.syn_count;
  EXPECT_EQ(a_syns, 400);
}

TEST(ReplayEngineTest, PacedReplayMatchesUnpacedResults) {
  const std::string capture = make_capture(300, SimTime::seconds(45), 9);
  const auto run_with = [&](ReplayClock clock) {
    std::istringstream in(capture, std::ios::binary);
    ReplayConfig cfg;
    cfg.clock = clock;
    cfg.speed = 1e9;  // paced, but effectively instant for the test
    ReplayEngine engine(in, cfg);
    AgentDemux demux(engine.scheduler(),
                     {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
                     core::SynDogParams::paper_defaults());
    engine.add_sink(demux);
    engine.run();
    demux.close_final_period();
    std::vector<std::int64_t> counts;
    for (const auto& r : demux.agent(0).history()) {
      counts.push_back(r.syn_count);
      counts.push_back(r.syn_ack_count);
    }
    return counts;
  };
  EXPECT_EQ(run_with(ReplayClock::kAsFastAsPossible),
            run_with(ReplayClock::kPaced));
}

TEST(AgentDemuxTest, RejectsDefaultStubOutsideTheStubList) {
  // The StubRouter checks default_stub for both datapaths: -1 (count
  // unmatched frames unroutable) through stubs - 1 are valid.
  sim::Scheduler scheduler;
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "a"},
      {*net::Ipv4Prefix::parse("10.2.0.0/16"), "b"}};
  const auto demux_with = [&](int default_stub) {
    DemuxOptions options;
    options.default_stub = default_stub;
    AgentDemux demux(scheduler, stubs, core::SynDogParams::paper_defaults(),
                     options);
  };
  EXPECT_NO_THROW(demux_with(-1));
  EXPECT_NO_THROW(demux_with(1));
  EXPECT_THROW(demux_with(-2), std::invalid_argument);
  EXPECT_THROW(demux_with(2), std::invalid_argument);
}

// ---------------------------------------------------------------------
// StubRouter against a linear first-match scan. Both datapaths route
// through the one StubRouter, so only this comparison can catch a
// routing bug: the sharded-vs-reference suites agree on any router.

/// The routing rule spelled out: each endpoint's stub is the first in
/// list order whose prefix contains it, then the direction rule.
StubRoute linear_route(const std::vector<StubSpec>& stubs, int default_stub,
                       std::uint32_t src, std::uint32_t dst) {
  const auto stub_of = [&](std::uint32_t addr) {
    for (std::size_t i = 0; i < stubs.size(); ++i) {
      if (stubs[i].prefix.contains(net::Ipv4Address{addr})) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  const int src_stub = stub_of(src);
  const int dst_stub = stub_of(dst);
  if (src_stub >= 0 && src_stub == dst_stub) return {-1, -1, true};
  if (src_stub < 0 && dst_stub < 0) return {default_stub, -1, false};
  return {src_stub, dst_stub, false};
}

/// Every address next to a prefix edge (base - 1, base, last, last + 1,
/// wrapping at the ends of the space), plus `random` uniform addresses.
std::vector<std::uint32_t> edge_queries(const std::vector<StubSpec>& stubs,
                                        util::Rng& rng, int random) {
  std::vector<std::uint32_t> queries;
  for (const StubSpec& spec : stubs) {
    const std::uint32_t base = spec.prefix.base().value();
    const auto last =
        static_cast<std::uint32_t>(base + (spec.prefix.size() - 1));
    queries.insert(queries.end(), {base - 1, base, last, last + 1});
  }
  for (int i = 0; i < random; ++i) queries.push_back(rng.next_u32());
  return queries;
}

/// Routes every query as a source against the next query (and itself)
/// as a destination, under default_stub -1, 0 and n - 1; returns how
/// many routes differ from the linear scan.
std::size_t count_mismatches(const std::vector<StubSpec>& stubs,
                             const std::vector<std::uint32_t>& queries) {
  std::size_t mismatches = 0;
  const int last_stub = static_cast<int>(stubs.size()) - 1;
  for (const int default_stub : {-1, 0, last_stub}) {
    const StubRouter router(stubs, default_stub);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint32_t src = queries[i];
      for (const std::uint32_t dst :
           {src, queries[(i + 1) % queries.size()]}) {
        const StubRoute got = router.route(src, dst);
        const StubRoute want = linear_route(stubs, default_stub, src, dst);
        if (got.outbound != want.outbound || got.inbound != want.inbound ||
            got.local != want.local) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << net::Ipv4Address{src}.to_string() << " -> "
                          << net::Ipv4Address{dst}.to_string()
                          << " default " << default_stub << ": got {"
                          << got.outbound << ", " << got.inbound << ", "
                          << got.local << "}, want {" << want.outbound
                          << ", " << want.inbound << ", " << want.local
                          << "}";
          }
        }
      }
    }
  }
  return mismatches;
}

TEST(StubRouterTest, MatchesLinearScanOnRandomPrefixLists) {
  // Prefixes cluster around a few anchors, so one list holds nested,
  // disjoint and duplicate prefixes; 0.0.0.0 and 255.255.255.255 are
  // anchors, and lengths run the full /0 to /32.
  util::Rng rng(2113);
  // Lists holding each shape the table must handle, to show the
  // generator produced them.
  int whole_space = 0, host = 0, at_zero = 0, at_top = 0;
  int duplicate = 0, nested = 0, disjoint = 0;
  std::size_t queries_run = 0;
  for (int list = 0; list < 400; ++list) {
    const std::array<std::uint32_t, 4> anchors = {
        0u, 0xFFFFFFFFu, rng.next_u32(), rng.next_u32()};
    std::vector<StubSpec> stubs;
    const auto n = rng.uniform_int(1, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      net::Ipv4Prefix prefix;
      if (!stubs.empty() && rng.bernoulli(0.1)) {
        prefix = stubs[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(stubs.size()) - 1))]
                     .prefix;
      } else {
        const std::uint32_t anchor =
            anchors[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        const auto jitter_bits = rng.uniform_int(0, 32);
        const auto jitter = static_cast<std::uint32_t>(
            rng.next_u32() & ((std::uint64_t{1} << jitter_bits) - 1));
        prefix = net::Ipv4Prefix(net::Ipv4Address{anchor ^ jitter},
                                 static_cast<int>(rng.uniform_int(0, 32)));
      }
      stubs.push_back({prefix, "s" + std::to_string(i)});
    }
    std::array<bool, 7> seen{};
    for (std::size_t a = 0; a < stubs.size(); ++a) {
      const net::Ipv4Prefix& pa = stubs[a].prefix;
      seen[0] = seen[0] || pa.length() == 0;
      seen[1] = seen[1] || pa.length() == 32;
      seen[2] = seen[2] || (pa.length() > 0 && pa.base().value() == 0);
      seen[3] = seen[3] || (pa.length() > 0 &&
                            pa.base().value() + (pa.size() - 1) ==
                                0xFFFFFFFFu);
      for (std::size_t b = 0; b < a; ++b) {
        const net::Ipv4Prefix& pb = stubs[b].prefix;
        const bool overlap = pa.contains(pb.base()) || pb.contains(pa.base());
        seen[4] = seen[4] || pa == pb;
        seen[5] = seen[5] || (overlap && pa != pb);
        seen[6] = seen[6] || !overlap;
      }
    }
    whole_space += seen[0];
    host += seen[1];
    at_zero += seen[2];
    at_top += seen[3];
    duplicate += seen[4];
    nested += seen[5];
    disjoint += seen[6];

    const std::vector<std::uint32_t> queries = edge_queries(stubs, rng, 64);
    queries_run += queries.size();
    ASSERT_EQ(count_mismatches(stubs, queries), 0u) << "list " << list;
  }
  for (const int lists :
       {whole_space, host, at_zero, at_top, duplicate, nested, disjoint}) {
    EXPECT_GT(lists, 20);
  }
  EXPECT_GT(queries_run, 40'000u);
}

/// `count` adjacent /24 stubs from 10.0.0.0; 512 is perfbench's
/// ingest-fleet layout.
std::vector<StubSpec> fleet_stubs(std::uint32_t count = 512) {
  std::vector<StubSpec> stubs;
  for (std::uint32_t s = 0; s < count; ++s) {
    stubs.push_back({net::Ipv4Prefix(net::Ipv4Address{0x0A000000u + (s << 8)},
                                     24),
                     "stub" + std::to_string(s)});
  }
  return stubs;
}

TEST(StubRouterTest, MatchesLinearScanOnTheFleetShape) {
  // Random queries fall inside the fleet's /15 or anywhere.
  const std::vector<StubSpec> stubs = fleet_stubs();
  util::Rng rng(512);
  std::vector<std::uint32_t> queries = edge_queries(stubs, rng, 2000);
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(0x0A000000u + (rng.next_u32() & 0x1FFFFu));
  }
  EXPECT_EQ(count_mismatches(stubs, queries), 0u);
}

TEST(StubRouterTest, RouteAllocatesNothing) {
  // The constructor builds the whole table and route() only reads it:
  // the runtime twin of stub_router.hpp's hot-path lint marker.
  const StubRouter router(fleet_stubs(), 0);
  util::Rng rng(7);
  std::vector<std::uint32_t> addrs(1024);
  for (std::uint32_t& a : addrs) a = 0x0A000000u + (rng.next_u32() & 0x3FFFFu);
  std::int64_t routed = 0;
  testsupport::AllocGuard guard;
  for (std::size_t i = 0; i < 100'000; ++i) {
    const StubRoute r = router.route(addrs[i % addrs.size()],
                                     addrs[(i * 7 + 3) % addrs.size()]);
    routed += r.outbound + r.inbound + r.local;
  }
  EXPECT_EQ(guard.stop(), 0u);
  EXPECT_NE(routed, 0);
}

TEST(ReplayEngineTest, RunAllocatesNothingPerFrame) {
  // The pump reuses one record buffer and one decoded Frame, so a capture
  // eight times longer must cost exactly as many allocations (the runtime
  // twin of docs/INGEST.md's steady-state promise).
  const auto allocations_for = [](std::size_t frames) {
    const std::string capture =
        make_capture(frames, SimTime::seconds(30), 41);
    std::istringstream in(capture, std::ios::binary);
    ReplayEngine engine(in);
    CountingSink sink;
    engine.add_sink(sink);
    testsupport::AllocGuard guard;
    engine.run();
    const std::size_t allocations = guard.stop();
    EXPECT_EQ(sink.total_, frames);
    return allocations;
  };
  EXPECT_EQ(allocations_for(250), allocations_for(2000));
}

// ---------------------------------------------------------------------
// Sharded datapath vs the single-threaded oracle (suite name is matched
// by the CI tsan job)

struct OracleResult {
  std::vector<std::vector<core::PeriodReport>> histories;
  std::uint64_t local = 0;
  std::uint64_t unroutable = 0;
  PipelineStats stats;
  SimTime last_at;
};

/// The deterministic reference pump: ReplayEngine + AgentDemux.
OracleResult run_oracle(const std::string& capture,
                        const std::vector<StubSpec>& stubs,
                        const core::SynDogParams& params,
                        DemuxOptions options = {}) {
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(), stubs, params, options);
  engine.add_sink(demux);
  OracleResult out;
  out.stats = engine.run();
  demux.close_final_period();
  for (std::size_t i = 0; i < demux.stub_count(); ++i) {
    out.histories.push_back(demux.agent(i).history());
  }
  out.local = demux.local_frames();
  out.unroutable = demux.unroutable_frames();
  out.last_at = engine.last_frame_at();
  return out;
}

/// Runs the sharded datapath at 1..max_threads threads and asserts its
/// stats, routing tallies, and every PeriodReport field (doubles
/// compared exactly) match the oracle.
void expect_sharded_matches_oracle(
    const std::string& capture, const std::vector<StubSpec>& stubs,
    const core::SynDogParams& params, DemuxOptions options = {},
    std::size_t max_threads = 4,
    std::size_t ring_capacity = ShardedConfig{}.ring_capacity) {
  const OracleResult oracle = run_oracle(capture, stubs, params, options);
  for (std::size_t threads = 1; threads <= max_threads; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = threads;
    cfg.ring_capacity = ring_capacity;
    cfg.params = params;
    cfg.mode = options.mode;
    cfg.default_stub = options.default_stub;
    ShardedReplay sharded(in, stubs, cfg);
    sharded.run();

    EXPECT_EQ(sharded.stats().records, oracle.stats.records);
    EXPECT_EQ(sharded.stats().frames, oracle.stats.frames);
    EXPECT_EQ(sharded.stats().bytes, oracle.stats.bytes);
    EXPECT_EQ(sharded.stats().decode_failures,
              oracle.stats.decode_failures);
    EXPECT_EQ(sharded.stats().truncated, oracle.stats.truncated);
    EXPECT_EQ(sharded.local_frames(), oracle.local);
    EXPECT_EQ(sharded.unroutable_frames(), oracle.unroutable);
    EXPECT_EQ(sharded.last_frame_at().ns(), oracle.last_at.ns());

    ASSERT_EQ(sharded.shard_count(), threads);
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
      delivered += sharded.shard(i).delivered;
    }
    EXPECT_EQ(delivered, sharded.stats().frames);

    ASSERT_EQ(sharded.stub_count(), oracle.histories.size());
    for (std::size_t s = 0; s < oracle.histories.size(); ++s) {
      SCOPED_TRACE("stub=" + std::to_string(s));
      const std::vector<core::PeriodReport>& got = sharded.history(s);
      const std::vector<core::PeriodReport>& want = oracle.histories[s];
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t p = 0; p < want.size(); ++p) {
        SCOPED_TRACE("period=" + std::to_string(p));
        EXPECT_EQ(got[p].period_index, want[p].period_index);
        EXPECT_EQ(got[p].syn_count, want[p].syn_count);
        EXPECT_EQ(got[p].syn_ack_count, want[p].syn_ack_count);
        EXPECT_EQ(got[p].k_estimate, want[p].k_estimate);
        EXPECT_EQ(got[p].delta, want[p].delta);
        EXPECT_EQ(got[p].x, want[p].x);
        EXPECT_EQ(got[p].y, want[p].y);
        EXPECT_EQ(got[p].alarm, want[p].alarm);
        EXPECT_EQ(got[p].x_clamped, want[p].x_clamped);
      }
    }
  }
}

TEST(IngestShardedTest, MatchesOracleSingleStub) {
  expect_sharded_matches_oracle(
      make_capture(2000, SimTime::seconds(130), 77),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleThroughRingsSmallerThanOneBatch) {
  // The producer publishes digests in batches larger than these rings,
  // so every batch ends at a full ring: the flush before the producer
  // waits is what lets the consumer drain it.
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("ring_capacity=" + std::to_string(capacity));
    expect_sharded_matches_oracle(
        make_capture(2000, SimTime::seconds(130), 78),
        {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
        core::SynDogParams::paper_defaults(), {}, 4, capacity);
  }
}

/// Stub A floods an external victim (alarms); stub B only answers
/// handshakes (quiet).
std::string multi_stub_capture() {
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 400; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(0);
    spec.src_ip = net::Ipv4Address(10, 1, 0,
                                   static_cast<std::uint8_t>(i % 200 + 1));
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);
    spec.src_port = static_cast<std::uint16_t>(1024 + i);
    spec.dst_port = 80;
    writer.write(SimTime::nanoseconds(ns += 100'000'000),
                 net::encode_frame(net::make_syn(spec)));
    if (i % 4 == 0) {
      net::TcpPacketSpec reply;
      reply.src_mac = net::MacAddress::for_host(0);
      reply.dst_mac = net::MacAddress::for_host(2);
      reply.src_ip = net::Ipv4Address(192, 0, 2, 9);
      reply.dst_ip = net::Ipv4Address(10, 2, 0,
                                      static_cast<std::uint8_t>(i % 99 + 1));
      reply.src_port = 80;
      reply.dst_port = static_cast<std::uint16_t>(999 + i);
      writer.write(SimTime::nanoseconds(ns),
                   net::encode_frame(net::make_syn_ack(reply)));
    }
  }
  return std::move(out).str();
}

std::vector<StubSpec> multi_stub_stubs() {
  return {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "a"},
          {*net::Ipv4Prefix::parse("10.2.0.0/16"), "b"}};
}

TEST(IngestShardedTest, MatchesOracleMultiStubBothDirections) {
  // Stub A floods an external victim (alarms); stub B only answers
  // handshakes (quiet). Cross-checks outbound and inbound counting and
  // the alarm bit through the merge.
  const std::string capture = multi_stub_capture();
  const std::vector<StubSpec> stubs = multi_stub_stubs();
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults());
  // Last-mile mode swaps which direction feeds which counter.
  DemuxOptions last_mile;
  last_mile.mode = core::AgentMode::kLastMile;
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults(),
                                last_mile);
}

TEST(IngestShardedTest, MatchesOracleLocalAndUnroutableFrames) {
  // LAN-local frames (src and dst in one stub), frames matching no stub
  // with default_stub = -1 (unroutable) and with default_stub = 0
  // (credited outbound).
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 300; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(2);
    spec.src_port = static_cast<std::uint16_t>(2000 + i);
    spec.dst_port = 80;
    switch (i % 3) {
      case 0:  // LAN-local: both endpoints inside the stub
        spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
        spec.dst_ip = net::Ipv4Address(10, 1, 7, 2);
        break;
      case 1:  // external-to-external: matches no stub
        spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
        spec.dst_ip = net::Ipv4Address(198, 51, 100, 7);
        break;
      default:  // ordinary outbound
        spec.src_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(i % 250));
        spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);
        break;
    }
    writer.write(SimTime::nanoseconds(ns += 50'000'000),
                 net::encode_frame(net::make_syn(spec)));
  }
  const std::string capture = std::move(out).str();
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  DemuxOptions drop_unmatched;
  drop_unmatched.default_stub = -1;
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults(),
                                drop_unmatched);
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleNestedPrefixes) {
  // A /16 nested in a /8, and SYNs from 10.2.x.x (inside the /8 only) to
  // 10.1.0.9 (inside both). Stubs match first-match in list order.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 600; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(2);
    spec.src_ip = net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i / 250),
                                   static_cast<std::uint8_t>(i % 250 + 1));
    spec.dst_ip = net::Ipv4Address(10, 1, 0, 9);
    spec.src_port = static_cast<std::uint16_t>(3000 + i);
    spec.dst_port = 80;
    writer.write(SimTime::nanoseconds(ns += 200'000'000),
                 net::encode_frame(net::make_syn(spec)));
  }
  const std::string capture = std::move(out).str();
  const StubSpec inner{*net::Ipv4Prefix::parse("10.1.0.0/16"), "inner"};
  const StubSpec outer{*net::Ipv4Prefix::parse("10.0.0.0/8"), "outer"};
  const core::SynDogParams params = core::SynDogParams::paper_defaults();

  // Inner first: the /16 owns the destination, so each SYN leaves
  // through the /8's outbound interface and enters the /16's inbound
  // one, and the /8 alarms on the unanswered SYNs.
  const std::vector<StubSpec> inner_first = {inner, outer};
  const OracleResult crossing = run_oracle(capture, inner_first, params);
  EXPECT_EQ(crossing.local, 0u);
  const std::vector<core::PeriodReport>& outer_history =
      crossing.histories[1];
  EXPECT_TRUE(std::any_of(outer_history.begin(), outer_history.end(),
                          [](const core::PeriodReport& r) {
                            return r.syn_count > 0 && r.alarm;
                          }));
  expect_sharded_matches_oracle(capture, inner_first, params);

  // Outer first: the /8 shadows the /16 and holds both endpoints, so
  // every frame is LAN-local.
  const std::vector<StubSpec> outer_first = {outer, inner};
  EXPECT_EQ(run_oracle(capture, outer_first, params).local, 600u);
  expect_sharded_matches_oracle(capture, outer_first, params);
}

TEST(IngestShardedTest, MatchesOracleMixedProtocolTraffic) {
  // Fragments, ICMP, non-IPv4 ethertypes, and runt records must take
  // the same accept/reject/no-flags decisions on both datapaths.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  util::Rng rng(55);
  std::int64_t ns = 0;
  for (int i = 0; i < 600; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    net::ByteBuffer frame = net::encode_frame(
        sample_packet(host, rng.uniform() < 0.5));
    switch (i % 5) {
      case 1:  // non-first fragment: offset 1, no transport header
        frame[14 + 6] = 0x00;
        frame[14 + 7] = 0x01;
        break;
      case 2:  // ICMP: transport bytes reinterpreted, no flags
        frame[14 + 9] = 1;
        break;
      case 3:  // non-IPv4 ethertype: decode failure on both paths
        frame[12] = 0x86;
        frame[13] = 0xdd;
        break;
      case 4:  // runt record: Ethernet header only
        frame.resize(14);
        break;
      default:
        break;
    }
    writer.write(SimTime::nanoseconds(ns += 40'000'000), frame);
  }
  expect_sharded_matches_oracle(
      std::move(out).str(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleAbsoluteEpochTimestamps) {
  // 2024-style absolute stamps: both datapaths must rebase to the first
  // decoded frame (EpochRebase's 24 h rule).
  const std::int64_t epoch_ns = 1'700'000'000LL * 1'000'000'000LL;
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  util::Rng rng(66);
  for (int i = 0; i < 500; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(epoch_ns + i * 90'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.4)));
  }
  expect_sharded_matches_oracle(
      std::move(out).str(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleTruncatedCapture) {
  const std::string whole = make_capture(800, SimTime::seconds(50), 88);
  // Chop mid-record: both datapaths must stop at the same record and
  // flag the capture truncated.
  expect_sharded_matches_oracle(
      whole.substr(0, whole.size() - 7),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOraclePcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 120'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  expect_sharded_matches_oracle(
      buf.str(), {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

/// Several healthy periods grow K past collapse_min_k, then SYN/ACKs
/// vanish for longer than outage_patience, then traffic recovers.
std::string synack_collapse_capture() {
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  const std::int64_t t0_ns = SimTime::seconds(20).ns();
  std::uint16_t port = 1000;
  const auto write_period = [&](int period, int syns, int syn_acks) {
    const std::int64_t base = period * t0_ns;
    const int total = syns + syn_acks;
    for (int i = 0; i < total; ++i) {
      const auto host = static_cast<std::uint32_t>(i % 120 + 1);
      net::TcpPacketSpec spec;
      spec.src_mac = net::MacAddress::for_host(host);
      spec.dst_mac = net::MacAddress::for_host(0);
      spec.src_port = ++port;
      spec.dst_port = 80;
      const auto at = SimTime::nanoseconds(
          base + 1 + (i * (t0_ns - 2)) / total);
      if (i < syns) {
        spec.src_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(host));
        spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
        writer.write(at, net::encode_frame(net::make_syn(spec)));
      } else {
        std::swap(spec.src_port, spec.dst_port);
        spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
        spec.dst_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(host));
        writer.write(at, net::encode_frame(net::make_syn_ack(spec)));
      }
    }
  };
  int period = 0;
  for (; period < 6; ++period) write_period(period, 40, 40);  // grow K
  for (; period < 13; ++period) write_period(period, 40, 0);  // collapse
  for (; period < 16; ++period) write_period(period, 40, 40);  // recover
  return std::move(out).str();
}

TEST(IngestShardedTest, MatchesOracleThroughSynAckCollapse) {
  // Several healthy periods grow K past collapse_min_k, then SYN/ACKs
  // vanish for longer than outage_patience, then traffic recovers: the
  // merge must reproduce the agent's gap absorption, the patience
  // overflow (raw counts fed without resetting the streak), and the
  // recovery reset, byte for byte.
  expect_sharded_matches_oracle(
      synack_collapse_capture(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

/// Runs `capture` through the reference engine and through the sharded
/// datapath at 1 and 4 threads, and asserts every stub's alarms agree in
/// period-end time and report. Suspects are not compared: digests carry
/// no MACs, so sharded alarms have none.
void expect_sharded_alarms_match(const std::string& capture,
                                 const std::vector<StubSpec>& stubs) {
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  AgentDemux demux(engine.scheduler(), stubs, params);
  engine.add_sink(demux);
  engine.run();
  demux.close_final_period();
  std::size_t raised = 0;
  for (std::size_t s = 0; s < stubs.size(); ++s) {
    raised += demux.alarms(s).size();
  }
  ASSERT_GT(raised, 0u) << "the capture must alarm for the check to bite";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream sharded_in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = threads;
    cfg.params = params;
    ShardedReplay sharded(sharded_in, stubs, cfg);
    sharded.run();
    for (std::size_t s = 0; s < stubs.size(); ++s) {
      SCOPED_TRACE("stub=" + std::to_string(s));
      const std::vector<core::AlarmEvent>& want = demux.alarms(s);
      const std::vector<core::AlarmEvent>& got = sharded.alarms(s);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t a = 0; a < want.size(); ++a) {
        EXPECT_EQ(got[a].at.ns(), want[a].at.ns()) << "alarm " << a;
        EXPECT_TRUE(got[a].report == want[a].report) << "alarm " << a;
        EXPECT_TRUE(got[a].suspects.empty()) << "alarm " << a;
      }
    }
  }
}

TEST(IngestShardedTest, AlarmsMatchReferenceAgents) {
  expect_sharded_alarms_match(multi_stub_capture(), multi_stub_stubs());
  expect_sharded_alarms_match(
      synack_collapse_capture(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}});
}

/// 37 adjacent /24 stubs from 10.0.0.0 over ten 20 s periods. Every
/// sixth stub never sees a frame; every ninth from stub 4 answers
/// handshakes for four periods, then floods unanswered SYNs; the rest
/// stay balanced, and every third of those goes silent after period 6.
struct ManyStubs {
  static constexpr std::uint8_t kCount = 37;
  static bool never_seen(int s) { return s % 6 == 5; }
  static bool floods(int s) { return s % 9 == 4; }
};

std::string many_stubs_capture() {
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  util::Rng rng(37);
  const std::int64_t t0_ns = SimTime::seconds(20).ns();
  std::uint16_t port = 1000;
  for (int period = 0; period < 10; ++period) {
    // (stub, true for a SYN/ACK) per frame, shuffled within the period.
    std::vector<std::pair<int, bool>> frames;
    for (int s = 0; s < ManyStubs::kCount; ++s) {
      if (ManyStubs::never_seen(s)) continue;
      if (ManyStubs::floods(s) && period >= 4) {
        frames.insert(frames.end(), 80, {s, false});
      } else if (s % 3 != 0 || period < 6) {
        frames.insert(frames.end(), 8, {s, false});
        frames.insert(frames.end(), 8, {s, true});
      }
    }
    for (std::size_t i = frames.size(); i > 1; --i) {
      std::swap(frames[i - 1],
                frames[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    const auto total = static_cast<std::int64_t>(frames.size());
    for (std::int64_t i = 0; i < total; ++i) {
      const auto [s, syn_ack] = frames[static_cast<std::size_t>(i)];
      const auto host = static_cast<std::uint8_t>(rng.uniform_int(1, 250));
      net::TcpPacketSpec spec;
      spec.src_mac = net::MacAddress::for_host(host);
      spec.dst_mac = net::MacAddress::for_host(0);
      spec.src_ip =
          net::Ipv4Address(10, 0, static_cast<std::uint8_t>(s), host);
      spec.dst_ip = net::Ipv4Address(192, 0, 2, host);
      spec.src_port = ++port;
      spec.dst_port = 80;
      if (syn_ack) {
        std::swap(spec.src_ip, spec.dst_ip);
        std::swap(spec.src_port, spec.dst_port);
      }
      const auto at =
          SimTime::nanoseconds(period * t0_ns + 1 + i * (t0_ns - 2) / total);
      writer.write(at, net::encode_frame(syn_ack ? net::make_syn_ack(spec)
                                                 : net::make_syn(spec)));
    }
  }
  return std::move(out).str();
}

TEST(IngestShardedTest, MatchesOracleAcrossManyStubs) {
  // More stubs than merge threads at every thread count, and a count
  // that no thread count from 2 to 5 divides, so the threads' stub
  // claims end unevenly. Alarms fire inside the merge, and stubs with
  // empty or short shard tables close every period too.
  const std::string capture = many_stubs_capture();
  const std::vector<StubSpec> stubs = fleet_stubs(ManyStubs::kCount);
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  const OracleResult oracle = run_oracle(capture, stubs, params);
  for (int s = 0; s < ManyStubs::kCount; ++s) {
    SCOPED_TRACE("stub=" + std::to_string(s));
    const std::vector<core::PeriodReport>& history =
        oracle.histories[static_cast<std::size_t>(s)];
    ASSERT_EQ(history.size(), 10u);
    const bool alarmed =
        std::any_of(history.begin(), history.end(),
                    [](const core::PeriodReport& r) { return r.alarm; });
    EXPECT_EQ(alarmed, ManyStubs::floods(s));
    if (ManyStubs::never_seen(s)) {
      EXPECT_TRUE(std::all_of(history.begin(), history.end(),
                              [](const core::PeriodReport& r) {
                                return r.syn_count == 0 &&
                                       r.syn_ack_count == 0;
                              }));
    }
  }
  expect_sharded_matches_oracle(capture, stubs, params);
  expect_sharded_alarms_match(capture, stubs);
}

TEST(IngestShardedTest, ProducerFailureMidCaptureRethrows) {
  // Valid packets, then a second section header whose byte-order magic
  // is garbage, so PcapngReader::next throws after the consumers have
  // started and taken digests. Every thread must still arrive at the
  // merge latch: run() returns by rethrowing the reader's error, and no
  // agent exists.
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(45);
  for (int i = 0; i < 300; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 150'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  writer.flush();
  std::string capture = buf.str();
  const std::uint8_t bad_section[] = {0x0A, 0x0D, 0x0D, 0x0A, 0x1C, 0x00,
                                      0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF};
  capture.append(reinterpret_cast<const char*>(bad_section),
                 sizeof bad_section);
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};

  for (std::size_t threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = threads;
    ShardedReplay sharded(in, stubs, cfg);
    try {
      sharded.run();
      ADD_FAILURE() << "run() must rethrow the reader's error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "pcapng: bad byte-order magic");
    }
    EXPECT_EQ(sharded.stats().records, 300u);
    EXPECT_THROW((void)sharded.agent(0), std::logic_error);
  }
}

TEST(IngestShardedTest, HugeSnaplenRecordFramesAlikeOnEveryPath) {
  // A header claiming snaplen 0xFFFFFFFF, then one 70,000-byte record.
  // The record length bound is computed in 64 bits and capped at
  // pcap::kMaxRecordBytes, so no path wraps it, and the stream source
  // sizes its buffer from the records it meets, not from the header.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out, pcap::LinkType::kEthernet, false, 0xFFFFFFFFu);
  net::ByteBuffer frame = net::encode_frame(sample_packet(1, false));
  frame.resize(70'000, 0);  // Ethernet padding past the IPv4 datagram
  writer.write(SimTime::seconds(1), frame);
  const std::string capture = std::move(out).str();
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in);
  const PipelineStats reference = engine.run();
  EXPECT_EQ(reference.records, 1u);
  EXPECT_EQ(reference.frames, 1u);
  EXPECT_EQ(engine.end_state(), pcap::ReadEnd::kEof);

  ShardedConfig cfg;
  cfg.threads = 1;
  std::istringstream sharded_in(capture, std::ios::binary);
  ShardedReplay from_stream(sharded_in, stubs, cfg);
  ShardedReplay from_span(
      net::ByteSpan{reinterpret_cast<const std::uint8_t*>(capture.data()),
                    capture.size()},
      stubs, cfg);
  for (ShardedReplay* sharded : {&from_stream, &from_span}) {
    sharded->run();
    EXPECT_EQ(sharded->stats().records, reference.records);
    EXPECT_EQ(sharded->stats().frames, reference.frames);
    EXPECT_EQ(sharded->end_state(), engine.end_state());
  }
}

/// Runs `capture` through the ByteSpan (zero-copy) constructor and
/// asserts stats, end state, routing tallies, and every history field
/// match the stream-constructed run — the span producer re-implements
/// the pcap record walk, so framing equivalence is its own contract.
void expect_span_matches_stream(const std::string& capture,
                                std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  ShardedConfig cfg;
  cfg.threads = threads;
  cfg.params = core::SynDogParams::paper_defaults();

  std::istringstream in(capture, std::ios::binary);
  ShardedReplay from_stream(in, stubs, cfg);
  from_stream.run();

  ShardedReplay from_span(
      net::ByteSpan{reinterpret_cast<const std::uint8_t*>(capture.data()),
                    capture.size()},
      stubs, cfg);
  EXPECT_EQ(from_span.format(), from_stream.format());
  from_span.run();

  EXPECT_EQ(from_span.stats().records, from_stream.stats().records);
  EXPECT_EQ(from_span.stats().frames, from_stream.stats().frames);
  EXPECT_EQ(from_span.stats().bytes, from_stream.stats().bytes);
  EXPECT_EQ(from_span.stats().decode_failures,
            from_stream.stats().decode_failures);
  EXPECT_EQ(from_span.stats().truncated, from_stream.stats().truncated);
  EXPECT_EQ(from_span.end_state(), from_stream.end_state());
  EXPECT_EQ(from_span.local_frames(), from_stream.local_frames());
  EXPECT_EQ(from_span.unroutable_frames(),
            from_stream.unroutable_frames());
  EXPECT_EQ(from_span.last_frame_at().ns(),
            from_stream.last_frame_at().ns());
  ASSERT_EQ(from_span.stub_count(), from_stream.stub_count());
  for (std::size_t s = 0; s < from_span.stub_count(); ++s) {
    SCOPED_TRACE("stub=" + std::to_string(s));
    const std::vector<core::PeriodReport>& got = from_span.history(s);
    const std::vector<core::PeriodReport>& want = from_stream.history(s);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      SCOPED_TRACE("period=" + std::to_string(p));
      EXPECT_EQ(got[p].period_index, want[p].period_index);
      EXPECT_EQ(got[p].syn_count, want[p].syn_count);
      EXPECT_EQ(got[p].syn_ack_count, want[p].syn_ack_count);
      EXPECT_EQ(got[p].k_estimate, want[p].k_estimate);
      EXPECT_EQ(got[p].x, want[p].x);
      EXPECT_EQ(got[p].y, want[p].y);
      EXPECT_EQ(got[p].alarm, want[p].alarm);
    }
  }
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourcePcap) {
  const std::string capture = make_capture(1200, SimTime::seconds(70), 31);
  expect_span_matches_stream(capture, 1);
  expect_span_matches_stream(capture, 3);
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourceTruncated) {
  // Chop mid-record: the span walk must stop at the same record and
  // report the same kTruncated end state as the stream reader.
  const std::string whole = make_capture(600, SimTime::seconds(40), 32);
  expect_span_matches_stream(whole.substr(0, whole.size() - 9), 2);
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourcePcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 150'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  const std::string capture = buf.str();
  expect_span_matches_stream(capture, 2);
}

TEST(IngestShardedTest, SpanSourceRejectsGarbage) {
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}};
  const auto span_of = [](const std::string& bytes) {
    return net::ByteSpan{
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
  };
  const std::string tiny = "abc";  // shorter than the 4-byte magic sniff
  EXPECT_THROW(ShardedReplay(span_of(tiny), stubs, {}),
               std::runtime_error);
  const std::string garbage = "definitely not a capture";
  EXPECT_THROW(ShardedReplay(span_of(garbage), stubs, {}),
               std::runtime_error);
}

TEST(IngestShardedTest, RejectsGarbageAndSecondRun) {
  {
    std::istringstream in("definitely not a capture", std::ios::binary);
    EXPECT_THROW(
        ShardedReplay(in, {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}},
                      {}),
        std::runtime_error);
  }
  const std::string capture = make_capture(20, SimTime::seconds(1), 3);
  std::istringstream in(capture, std::ios::binary);
  ShardedReplay sharded(
      in, {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}}, {});
  sharded.run();
  EXPECT_THROW(sharded.run(), std::logic_error);
}

TEST(IngestShardedTest, ConfigValidation) {
  const std::string capture = make_capture(5, SimTime::seconds(1), 4);
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}};
  const auto expect_rejects = [&](ShardedConfig cfg) {
    std::istringstream in(capture, std::ios::binary);
    EXPECT_THROW(ShardedReplay(in, stubs, cfg), std::invalid_argument);
  };
  ShardedConfig cfg;
  cfg.threads = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.ring_capacity = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.ring_capacity = SIZE_MAX;  // no power-of-two round-up in a size_t
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.flush_threshold = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.default_stub = 1;  // only one stub
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.default_stub = -2;
  expect_rejects(cfg);
  {
    std::istringstream in(capture, std::ios::binary);
    EXPECT_THROW(ShardedReplay(in, {}, ShardedConfig{}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace syndog::ingest
