// Ingest workloads: ingest-minframe and ingest-fleet.
//
// The benchmark generates a classic pcap capture in memory from the seed
// and hands the bytes to the program's two ingest datapaths:
//   * the reference path, ingest::ReplayEngine + ingest::AgentDemux on
//     one thread (what syndog_replay runs by default, and what alarms);
//   * ingest::ShardedReplay on the zero-copy byte-span source at two
//     consumer threads (plus its producer thread).
// Every pass is gated: the reference run must reproduce the first
// reference run and alarm on every flooding stub, and the sharded
// history(i) must equal the reference agent(i).history() field for field.
//
// The traced run adds two passes that time calls into each layer from
// here: the reference path with a pass-through sink timing every
// AgentDemux::on_frame call, and a staged re-run of the sharded datapath
// (pcap framing, digest, flow hash, SlotRing, flag sweep, merge, CUSUM)
// that must reproduce ShardedReplay::history() exactly.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "syndog/classify/batch.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/sharded.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcap.hpp"

namespace perfbench {
namespace {

namespace classify = syndog::classify;
namespace core = syndog::core;
namespace ingest = syndog::ingest;
namespace net = syndog::net;
namespace pcap = syndog::pcap;

constexpr std::int64_t kSecondNs = 1'000'000'000;
constexpr std::int64_t kPeriodNs = 20 * kSecondNs;  // the paper's t0
/// Captures carry absolute timestamps, so both datapaths rebase them.
constexpr std::int64_t kEpochNs = 1'700'000'000 * kSecondNs;
constexpr std::size_t kThreads2t = 2;

// ---- Capture generation -------------------------------------------------

struct Shape {
  int stubs;
  int prefix_len;
  int periods;
  std::uint64_t connections;  ///< background handshakes over the capture
  double answered;            ///< share of SYNs that draw a SYN/ACK
  double acked;               ///< share of answered SYNs followed by an ACK
  bool payloads;              ///< ACKs carry 0-1460 payload bytes
  double inter_stub;          ///< share of connections between two stubs
  double lan_local;           ///< share of connections inside one stub
  int flood_stubs;
  int flood_from;             ///< first flooded period
  int flood_to;               ///< one past the last flooded period
  double flood_per_period;    ///< spoofed SYNs per period; 0 = match K
};

// 4 /16 stubs, ~2M minimum-size frames over 30 periods.
constexpr Shape kMinframe{4, 16, 30, 760'000, 0.95, 0.58, false,
                          0.0, 0.0, 1, 10, 30, 0.0};
// 512 /24 stubs over 2 hours (360 periods), ~0.24M frames.
constexpr Shape kFleet{512, 24, 360, 80'000, 0.98, 1.0, true,
                       0.02, 0.005, 8, 120, 240, 10.0};

constexpr std::uint8_t kSyn = 0x02;
constexpr std::uint8_t kAck = 0x10;
constexpr std::uint8_t kSynAck = kSyn | kAck;

struct WirePacket {
  std::int64_t at_ns;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint16_t sport;
  std::uint16_t dport;
  std::uint16_t payload;
  std::uint8_t flags;
};

void put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
void put32(std::uint8_t* p, std::uint32_t v) {
  put16(p, static_cast<std::uint16_t>(v >> 16));
  put16(p + 2, static_cast<std::uint16_t>(v));
}
void put32le(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

/// Appends one Ethernet/IPv4/TCP record (padded to the 60-byte minimum
/// frame) to a classic little-endian microsecond pcap.
void append_record(std::string& out, const WirePacket& w) {
  const std::size_t ip_len = 40 + std::size_t{w.payload};
  const std::size_t frame_len = std::max<std::size_t>(14 + ip_len, 60);
  const std::size_t at = out.size();
  out.resize(at + 16 + frame_len, '\0');
  auto* r = reinterpret_cast<std::uint8_t*>(out.data() + at);
  const std::int64_t ts = kEpochNs + w.at_ns;
  put32le(r, static_cast<std::uint32_t>(ts / kSecondNs));
  put32le(r + 4, static_cast<std::uint32_t>((ts % kSecondNs) / 1000));
  put32le(r + 8, static_cast<std::uint32_t>(frame_len));
  put32le(r + 12, static_cast<std::uint32_t>(frame_len));
  std::uint8_t* f = r + 16;
  f[0] = 0x02;  // router MAC 02:00:00:00:00:01
  f[5] = 0x01;
  f[6] = 0x02;  // station MAC 02:00:<src address>
  put32(f + 8, w.src);
  put16(f + 12, 0x0800);
  std::uint8_t* ip = f + 14;
  ip[0] = 0x45;
  put16(ip + 2, static_cast<std::uint16_t>(ip_len));
  put16(ip + 6, 0x4000);  // DF
  ip[8] = 64;
  ip[9] = 6;
  put32(ip + 12, w.src);
  put32(ip + 16, w.dst);
  std::uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) sum += (std::uint32_t{ip[i]} << 8) | ip[i + 1];
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  put16(ip + 10, static_cast<std::uint16_t>(~sum));
  std::uint8_t* tcp = ip + 20;
  put16(tcp, w.sport);
  put16(tcp + 2, w.dport);
  put32(tcp + 4, static_cast<std::uint32_t>(static_cast<std::uint64_t>(w.at_ns) * 2654435761u));
  tcp[12] = 0x50;
  tcp[13] = w.flags;
  put16(tcp + 14, 0xffff);
}

struct IngestInput {
  std::string capture;
  std::vector<ingest::StubSpec> stubs;
  std::vector<int> flood_stubs;
  std::uint64_t records = 0;
};

std::uint32_t stub_base(const Shape& s, int stub) {
  return 0x0A000000u + (static_cast<std::uint32_t>(stub) << (32 - s.prefix_len));
}

IngestInput generate(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  IngestInput in;
  for (int s = 0; s < shape.stubs; ++s) {
    const net::Ipv4Prefix prefix(net::Ipv4Address{stub_base(shape, s)},
                                 shape.prefix_len);
    in.stubs.push_back({prefix, "stub" + std::to_string(s)});
  }
  std::vector<int> order(static_cast<std::size_t>(shape.stubs));
  for (int s = 0; s < shape.stubs; ++s) order[static_cast<std::size_t>(s)] = s;
  for (int i = 0; i < shape.flood_stubs; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.between(static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(shape.stubs - 1)));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
    in.flood_stubs.push_back(order[static_cast<std::size_t>(i)]);
  }
  std::sort(in.flood_stubs.begin(), in.flood_stubs.end());

  const std::uint64_t hosts = (std::uint64_t{1} << (32 - shape.prefix_len)) - 2;
  const auto host_of = [&](int stub) {
    return stub_base(shape, stub) + static_cast<std::uint32_t>(rng.between(1, hosts));
  };
  const auto remote = [&] {
    return static_cast<std::uint32_t>(rng.between(0x0B000000u, 0xDEFFFFFFu));
  };
  const std::int64_t span_ns = std::int64_t{shape.periods} * kPeriodNs - kSecondNs;

  std::vector<WirePacket> pkts;
  pkts.reserve(static_cast<std::size_t>(shape.connections * 3));
  for (std::uint64_t c = 0; c < shape.connections; ++c) {
    const auto t = static_cast<std::int64_t>(rng.uniform() * static_cast<double>(span_ns));
    const int stub = static_cast<int>(rng.between(0, static_cast<std::uint64_t>(shape.stubs - 1)));
    const std::uint32_t client = host_of(stub);
    const double kind = rng.uniform();
    std::uint32_t server = remote();
    if (kind < shape.lan_local) {
      server = host_of(stub);
    } else if (kind < shape.lan_local + shape.inter_stub) {
      server = host_of(static_cast<int>(rng.between(0, static_cast<std::uint64_t>(shape.stubs - 1))));
    }
    const auto sport = static_cast<std::uint16_t>(rng.between(1024, 65535));
    const std::uint16_t dport = rng.uniform() < 0.7 ? 443 : 80;
    pkts.push_back({t, client, server, sport, dport, 0, kSyn});
    if (rng.uniform() >= shape.answered) continue;
    const auto rtt = static_cast<std::int64_t>(rng.between(10, 200)) * 1'000'000;
    pkts.push_back({t + rtt, server, client, dport, sport, 0, kSynAck});
    if (rng.uniform() >= shape.acked) continue;
    std::uint16_t payload = 0;
    if (shape.payloads && rng.uniform() < 0.4) {
      payload = static_cast<std::uint16_t>(rng.between(1, 1460));
    }
    pkts.push_back({t + rtt + 50'000, client, server, sport, dport, payload, kAck});
  }

  const net::Ipv4Address victim{198, 51, 100, 10};
  const double per_period =
      shape.flood_per_period > 0.0
          ? shape.flood_per_period
          : static_cast<double>(shape.connections) / shape.stubs / shape.periods;
  const std::int64_t flood_start = std::int64_t{shape.flood_from} * kPeriodNs;
  const std::int64_t flood_ns = std::int64_t{shape.flood_to - shape.flood_from} * kPeriodNs - kSecondNs;
  for (const int stub : in.flood_stubs) {
    const auto n = static_cast<std::uint64_t>(per_period * (shape.flood_to - shape.flood_from));
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto t = flood_start + static_cast<std::int64_t>(rng.uniform() * static_cast<double>(flood_ns));
      pkts.push_back({t, host_of(stub), victim.value(),
                      static_cast<std::uint16_t>(rng.between(1024, 65535)), 80, 0, kSyn});
    }
  }
  std::stable_sort(pkts.begin(), pkts.end(),
                   [](const WirePacket& a, const WirePacket& b) { return a.at_ns < b.at_ns; });

  in.capture.reserve(24 + pkts.size() * 80);
  in.capture.resize(24, '\0');
  auto* h = reinterpret_cast<std::uint8_t*>(in.capture.data());
  put32le(h, 0xa1b2c3d4u);
  h[4] = 2;  // version 2.4
  h[6] = 4;
  put32le(h + 16, 65535);  // snaplen
  put32le(h + 20, 1);      // Ethernet
  for (const WirePacket& w : pkts) append_record(in.capture, w);
  in.records = pkts.size();
  return in;
}

// ---- Datapath passes ----------------------------------------------------

/// Read-only istream over the generated bytes, so the program reads the
/// capture in place (the benchmark's input, not part of any measurement).
class CaptureStream {
 public:
  explicit CaptureStream(const std::string& bytes)
      : buf_(bytes), in_(&buf_) {}
  std::istream& get() { return in_; }

 private:
  struct Buf : std::streambuf {
    explicit Buf(const std::string& b) {
      char* p = const_cast<char*>(b.data());
      setg(p, p, p + b.size());
    }
  };
  Buf buf_;
  std::istream in_;
};

net::ByteSpan span_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The reference path's outputs the gate compares.
struct Reference {
  std::vector<std::vector<core::PeriodReport>> history;
  std::vector<std::size_t> alarms;
  ingest::PipelineStats stats;
  std::uint64_t local = 0;
  std::uint64_t unroutable = 0;
};

struct PassTiming {
  double setup_s = 0.0;
  double run_s = 0.0;
  double mem_mb = 0.0;
  std::uint64_t frames = 0;
};

/// Times every AgentDemux::on_frame call as a child span of the run. The
/// clock reads and the add() cost time inside and around each span; the
/// traced run measures that cost (SpanCost) and takes it off.
class TimedSink final : public ingest::ReplaySink {
 public:
  TimedSink(ingest::ReplaySink& inner, SpanLog& log, std::int32_t parent)
      : inner_(inner), log_(log), name_(log.intern("ingest.demux_on_frame")),
        parent_(parent) {}
  void on_frame(syndog::util::SimTime at, const ingest::Frame& frame) override {
    const std::int64_t start = now_ns();
    inner_.on_frame(at, frame);
    log_.add(name_, parent_, start, now_ns());
  }

 private:
  ingest::ReplaySink& inner_;
  SpanLog& log_;
  std::uint32_t name_;
  std::int32_t parent_;
};

class IngestBench {
 public:
  IngestBench(IngestInput input, core::SynDogParams params)
      : in_(std::move(input)), params_(params) {}

  const IngestInput& input() const { return in_; }
  const Reference& oracle() const { return oracle_; }

  /// One reference pass. With `log`, every demux call is traced as a
  /// child of one span around ReplayEngine::run().
  bool reference_pass(Outcome& out, PassTiming& t, SpanLog* log = nullptr) {
    CaptureStream stream(in_.capture);
    Reference got;
    {
      MemWindow mem;
      const std::int64_t t0 = now_ns();
      auto engine = std::make_unique<ingest::ReplayEngine>(stream.get());
      auto demux = std::make_unique<ingest::AgentDemux>(
          engine->scheduler(), in_.stubs, params_);
      const std::int64_t t1 = now_ns();
      std::unique_ptr<TimedSink> timed;
      std::int32_t span = -1;
      if (log != nullptr) {
        span = log->open(log->intern("ingest.replay_run"));
        timed = std::make_unique<TimedSink>(*demux, *log, span);
        engine->add_sink(*timed);
      } else {
        engine->add_sink(*demux);
      }
      const std::int64_t t2 = now_ns();
      got.stats = engine->run();
      const std::int64_t t3 = now_ns();
      if (log != nullptr) log->close(span);
      demux->close_final_period();
      t = PassTiming{seconds_between(t0, t1), seconds_between(t2, t3),
                     mem.added_mb(), got.stats.frames};
      for (std::size_t i = 0; i < demux->stub_count(); ++i) {
        got.history.push_back(demux->agent(i).history());
        got.alarms.push_back(demux->alarms(i).size());
      }
      got.local = demux->local_frames();
      got.unroutable = demux->unroutable_frames();
    }
    bool ok = got.stats.records == in_.records && !got.stats.truncated;
    for (const int s : in_.flood_stubs) {
      ok = ok && got.alarms[static_cast<std::size_t>(s)] > 0;
    }
    if (!have_oracle_) {
      oracle_ = std::move(got);
      have_oracle_ = true;
    } else {
      ok = ok && got.history == oracle_.history && got.alarms == oracle_.alarms;
    }
    return out.gate(ok, "reference replay: capture not fully read, a "
                        "flooding stub did not alarm, or the run differs "
                        "from the first reference run");
  }

  /// One sharded pass at two consumer threads.
  bool sharded_pass(Outcome& out, PassTiming& t,
                    std::vector<ingest::ShardCounters>* shards = nullptr) {
    bool ok = true;
    {
      MemWindow mem;
      const std::int64_t t0 = now_ns();
      auto sharded = std::make_unique<ingest::ShardedReplay>(
          span_of(in_.capture), in_.stubs, sharded_config());
      const std::int64_t t1 = now_ns();
      sharded->run();
      const std::int64_t t2 = now_ns();
      const double mem_mb = mem.added_mb();
      ok = matches_oracle(*sharded);
      if (shards != nullptr) {
        for (std::size_t i = 0; i < sharded->shard_count(); ++i) {
          shards->push_back(sharded->shard(i));
        }
      }
      t = PassTiming{seconds_between(t0, t1), seconds_between(t1, t2),
                     mem_mb, sharded->stats().frames};
    }
    return out.gate(ok, "sharded replay history differs from the reference "
                        "agent history");
  }

  /// Constructor-only samples (no run) of each datapath. The reference
  /// sample returns {ReplayEngine, AgentDemux} seconds.
  std::pair<double, double> reference_setup_sample() {
    CaptureStream stream(in_.capture);
    const std::int64_t t0 = now_ns();
    auto engine = std::make_unique<ingest::ReplayEngine>(stream.get());
    const std::int64_t t1 = now_ns();
    auto demux = std::make_unique<ingest::AgentDemux>(engine->scheduler(),
                                                      in_.stubs, params_);
    const std::int64_t t2 = now_ns();
    return {seconds_between(t0, t1), seconds_between(t1, t2)};
  }
  double sharded_setup_sample() {
    const std::int64_t t0 = now_ns();
    auto sharded = std::make_unique<ingest::ShardedReplay>(
        span_of(in_.capture), in_.stubs, sharded_config());
    const std::int64_t t1 = now_ns();
    return seconds_between(t0, t1);
  }

  ingest::ShardedConfig sharded_config() const {
    ingest::ShardedConfig cfg;
    cfg.threads = kThreads2t;
    cfg.params = params_;
    return cfg;
  }

  bool matches_oracle(const ingest::ShardedReplay& sharded) const {
    if (!have_oracle_ || sharded.stub_count() != oracle_.history.size()) {
      return false;
    }
    for (std::size_t i = 0; i < sharded.stub_count(); ++i) {
      if (sharded.history(i) != oracle_.history[i]) return false;
    }
    return sharded.stats().frames == oracle_.stats.frames &&
           sharded.local_frames() == oracle_.local &&
           sharded.unroutable_frames() == oracle_.unroutable;
  }

 private:
  IngestInput in_;
  core::SynDogParams params_;
  Reference oracle_;
  bool have_oracle_ = false;
};

// ---- Staged sharded datapath (traced run) ---------------------------------

/// Per-layer totals of one staged pass.
struct StagedCounts {
  std::uint64_t records = 0;
  std::uint64_t digests = 0;
  std::uint64_t swept_bytes = 0;
  std::uint64_t observe_calls = 0;
};

/// Feeds the capture through the sharded datapath's stage functions in
/// its order — pcap framing, FlowDigest extraction, flow hash + shard,
/// one uncontended SlotRing round trip per digest, per-shard routing and
/// flag sweeps, then the merge through core::SynDog — timing each stage
/// per batch of records. Returns the per-stub histories, which must equal
/// ShardedReplay::history(). The period and merge rules restate
/// ShardedReplay's (src/ingest/sharded.cpp) from its documented contract.
std::vector<std::vector<core::PeriodReport>> staged_sharded(
    const IngestInput& in, const ingest::ShardedConfig& cfg, SpanLog& log,
    StagedCounts& n) {
  constexpr std::size_t kBatch = 4096;
  const std::uint32_t batch_name = log.intern("ingest.batch");
  const std::uint32_t pcap_name = log.intern("pcap.next_into");
  const std::uint32_t digest_name = log.intern("net.extract_flow_digest");
  const std::uint32_t decode_name = log.intern("net.decode_frame_into");
  const std::uint32_t hash_name = log.intern("ingest.flow_hash");
  const std::uint32_t ring_name = log.intern("ingest.slot_ring");
  const std::uint32_t consume_name = log.intern("ingest.consume");
  const std::uint32_t sweep_name = log.intern("classify.sweep_flags");
  const std::uint32_t merge_name = log.intern("ingest.merge");
  const std::uint32_t cusum_name = log.intern("core.cusum");

  struct StubState {
    std::vector<std::uint8_t> out_flags;
    std::vector<std::uint8_t> in_flags;
    classify::FlagSweep out_partial;
    classify::FlagSweep in_partial;
    std::vector<std::array<std::int64_t, 2>> periods;
  };
  struct ShardState {
    explicit ShardState(std::size_t ring_capacity) : ring(ring_capacity) {}
    ingest::SlotRing<net::FlowDigest> ring;
    std::vector<net::FlowDigest> staged;
    std::vector<StubState> stubs;
    std::int64_t cur_period = 0;
    std::int64_t next_boundary = 0;
  };
  const std::size_t shards = cfg.threads;
  const std::size_t stub_count = in.stubs.size();
  const std::int64_t t0 = cfg.params.observation_period.ns();
  std::vector<std::unique_ptr<ShardState>> sh;
  for (std::size_t i = 0; i < shards; ++i) {
    sh.push_back(std::make_unique<ShardState>(cfg.ring_capacity));
    sh.back()->stubs.resize(stub_count);
    for (StubState& s : sh.back()->stubs) {
      s.out_flags.reserve(cfg.flush_threshold + 1);
      s.in_flags.reserve(cfg.flush_threshold + 1);
    }
    sh.back()->staged.reserve(kBatch);
    sh.back()->next_boundary = t0;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> matchers;
  for (const ingest::StubSpec& spec : in.stubs) {
    matchers.emplace_back(spec.prefix.mask(), spec.prefix.base().value());
  }

  std::int32_t parent = -1;
  const auto sweep = [&](std::vector<std::uint8_t>& flags,
                         classify::FlagSweep& partial) {
    if (flags.empty()) return;
    const std::int64_t s = now_ns();
    partial += classify::sweep_flags(
        std::span<const std::uint8_t>{flags.data(), flags.size()});
    log.add(sweep_name, parent, s, now_ns());
    n.swept_bytes += flags.size();
    flags.clear();
  };
  const auto append = [&](std::vector<std::uint8_t>& flags,
                          classify::FlagSweep& partial, std::uint8_t f) {
    flags.push_back(f);
    if (flags.size() >= cfg.flush_threshold) sweep(flags, partial);
  };
  const auto close_period = [&](ShardState& s, std::int64_t p) {
    for (StubState& st : s.stubs) {
      sweep(st.out_flags, st.out_partial);
      sweep(st.in_flags, st.in_partial);
      const bool first = cfg.mode == core::AgentMode::kFirstMile;
      const auto syn = static_cast<std::int64_t>(
          first ? st.out_partial.syn : st.in_partial.syn);
      const auto synack = static_cast<std::int64_t>(
          first ? st.in_partial.syn_ack : st.out_partial.syn_ack);
      if ((syn | synack) != 0) {
        if (st.periods.size() <= static_cast<std::size_t>(p)) {
          st.periods.resize(static_cast<std::size_t>(p) + 1);
        }
        st.periods[static_cast<std::size_t>(p)] = {syn, synack};
      }
      st.out_partial = {};
      st.in_partial = {};
    }
  };

  CaptureStream stream(in.capture);
  pcap::Reader reader(stream.get());
  std::vector<pcap::Record> recs(kBatch);
  std::vector<net::FlowDigest> digs(kBatch);
  std::vector<std::uint8_t> ok(kBatch);
  std::vector<std::size_t> shard_of(kBatch);
  net::Packet decoded;
  bool first_seen = false;
  std::int64_t epoch = 0;
  std::int64_t last_at = 0;
  bool decode_agrees = true;

  for (;;) {
    const std::int32_t batch = log.open(batch_name);
    std::size_t count = 0;
    const std::int32_t ps = log.open(pcap_name, batch);
    while (count < kBatch && reader.next_into(recs[count])) ++count;
    log.close(ps);
    n.records += count;

    const std::int32_t ds = log.open(digest_name, batch);
    for (std::size_t i = 0; i < count; ++i) {
      const pcap::Record& r = recs[i];
      net::FlowDigest& d = digs[i];
      ok[i] = net::extract_flow_digest(
          net::ByteSpan{r.data.data(), r.data.size()}, d);
      if (ok[i] == 0) continue;
      const std::int64_t ts = r.timestamp.ns();
      if (!first_seen) {
        first_seen = true;
        if (ts > 86'400 * kSecondNs) epoch = ts;
      }
      std::int64_t at = ts - epoch;
      if (at < last_at) at = last_at;
      last_at = at;
      d.at_ns = at;
      d.wire_bytes = r.orig_len;
    }
    log.close(ds);

    const std::int32_t dec = log.open(decode_name, batch);
    for (std::size_t i = 0; i < count; ++i) {
      const pcap::Record& r = recs[i];
      const bool good = net::decode_frame_into(
          net::ByteSpan{r.data.data(), r.data.size()}, decoded);
      decode_agrees = decode_agrees && good == (ok[i] != 0);
    }
    log.close(dec);

    const std::int32_t hs = log.open(hash_name, batch);
    for (std::size_t i = 0; i < count; ++i) {
      if (ok[i] != 0) {
        shard_of[i] = ingest::shard_of(ingest::flow_hash(digs[i]), shards);
      }
    }
    log.close(hs);

    const std::int32_t rs = log.open(ring_name, batch);
    for (std::size_t i = 0; i < count; ++i) {
      if (ok[i] == 0) continue;
      ShardState& s = *sh[shard_of[i]];
      net::FlowDigest* slot = s.ring.try_claim();
      *slot = digs[i];
      s.ring.publish();
      const std::span<const net::FlowDigest> r = s.ring.readable();
      s.staged.push_back(r.front());
      s.ring.release(1);
      ++n.digests;
    }
    log.close(rs);

    for (std::size_t k = 0; k < shards; ++k) {
      ShardState& s = *sh[k];
      parent = log.open(consume_name, batch);
      for (const net::FlowDigest& d : s.staged) {
        if (d.at_ns >= s.next_boundary) {
          close_period(s, s.cur_period);
          s.cur_period = d.at_ns / t0;
          s.next_boundary = (s.cur_period + 1) * t0;
        }
        int src = -1;
        int dst = -1;
        for (std::size_t i = 0; i < matchers.size(); ++i) {
          const auto [mask, base] = matchers[i];
          if (src < 0 && (d.src & mask) == base) src = static_cast<int>(i);
          if (dst < 0 && (d.dst & mask) == base) dst = static_cast<int>(i);
        }
        if (src >= 0 && src == dst) continue;
        if (src >= 0) {
          StubState& st = s.stubs[static_cast<std::size_t>(src)];
          append(st.out_flags, st.out_partial, d.flags);
        }
        if (dst >= 0) {
          StubState& st = s.stubs[static_cast<std::size_t>(dst)];
          append(st.in_flags, st.in_partial, d.flags);
        }
        if (src < 0 && dst < 0 && cfg.default_stub >= 0) {
          StubState& st = s.stubs[static_cast<std::size_t>(cfg.default_stub)];
          append(st.out_flags, st.out_partial, d.flags);
        }
      }
      s.staged.clear();
      log.close(parent);
    }
    log.close(batch);
    if (count < kBatch) break;
  }
  for (auto& s : sh) {
    parent = log.open(consume_name);
    close_period(*s, s->cur_period);
    log.close(parent);
  }

  std::vector<std::vector<core::PeriodReport>> hist(stub_count);
  const std::int32_t ms = log.open(merge_name);
  const std::int64_t total_periods = last_at / t0 + 1;
  std::vector<std::array<std::int64_t, 2>> sums(static_cast<std::size_t>(total_periods));
  for (std::size_t st = 0; st < stub_count; ++st) {
    for (std::int64_t p = 0; p < total_periods; ++p) {
      std::array<std::int64_t, 2> c{0, 0};
      for (const auto& s : sh) {
        const auto& per = s->stubs[st].periods;
        if (static_cast<std::size_t>(p) < per.size()) {
          c[0] += per[static_cast<std::size_t>(p)][0];
          c[1] += per[static_cast<std::size_t>(p)][1];
        }
      }
      sums[static_cast<std::size_t>(p)] = c;
    }
    const std::int32_t cs = log.open(cusum_name, ms);
    core::SynDog dog(cfg.params);
    std::int64_t collapsed_run = 0;
    for (const auto& [syn, synack] : sums) {
      const double k = dog.k();
      const bool collapsed =
          cfg.mode == core::AgentMode::kFirstMile &&
          k >= cfg.health.collapse_min_k &&
          syn >= cfg.health.collapse_min_syn &&
          static_cast<double>(synack) <= cfg.health.collapse_fraction * k;
      if (collapsed) {
        if (++collapsed_run <= cfg.health.outage_patience) {
          dog.note_gap_periods(1);
          continue;
        }
      } else {
        collapsed_run = 0;
      }
      hist[st].push_back(dog.observe_period(syn, synack));
      ++n.observe_calls;
    }
    log.close(cs);
  }
  log.close(ms);
  if (!decode_agrees) hist.clear();  // fails the gate
  return hist;
}

const Shape* shape_of(const std::string& workload) {
  if (workload == "ingest-minframe") return &kMinframe;
  if (workload == "ingest-fleet") return &kFleet;
  return nullptr;
}

double per(double ns, std::uint64_t units) {
  return units == 0 ? 0.0 : ns / static_cast<double>(units);
}

}  // namespace

Outcome run_ingest(const Options& opt) {
  Outcome out;
  const Shape& shape = *shape_of(opt.workload);
  const std::int64_t gen0 = now_ns();
  IngestBench bench(generate(shape, opt.seed),
                    core::SynDogParams::paper_defaults());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu records, %.1f MB capture, %zu "
               "stubs, flooding stubs %zu (generated in %.2f s)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(bench.input().records),
               static_cast<double>(bench.input().capture.size()) / 1e6,
               bench.input().stubs.size(), bench.input().flood_stubs.size(),
               seconds_between(gen0, now_ns()));

  // Warm-up and oracle: one reference pass, untimed in the results.
  PassTiming warm;
  if (!bench.reference_pass(out, warm)) return out;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);

  if (!opt.trace) {
    std::vector<double> tput1;
    std::vector<double> tput2;
    std::vector<double> setup;
    std::vector<double> mem;
    do {
      PassTiming r;
      PassTiming s;
      const bool ok_r = bench.reference_pass(out, r);
      const bool ok_s = bench.sharded_pass(out, s);
      if (ok_r) tput1.push_back(static_cast<double>(r.frames) / r.run_s);
      if (ok_s) tput2.push_back(static_cast<double>(s.frames) / s.run_s);
      if (ok_r && ok_s) {
        setup.push_back(r.setup_s + s.setup_s);
        mem.push_back(std::max(r.mem_mb, s.mem_mb));
      }
      // Set-up alone is well under a millisecond here; sample it more.
      for (int i = 0; i < 4; ++i) {
        const auto [engine_s, demux_s] = bench.reference_setup_sample();
        setup.push_back(engine_s + demux_s + bench.sharded_setup_sample());
      }
    } while (now_ns() < deadline);
    std::fprintf(stderr, "perfbench: %zu reference and %zu sharded passes, "
                 "%zu set-up samples\n", tput1.size(), tput2.size(), setup.size());
    print_passes("throughput", tput1);
    print_passes("throughput_2t", tput2);
    out.add("throughput", harmonic_mean(tput1), "work/s");
    out.add("throughput_2t", harmonic_mean(tput2), "work/s");
    out.add("setup_s", median(setup), "s");
    out.add("mem_mb", median(mem), "MB");
    return out;
  }

  // ---- Traced run ----------------------------------------------------
  SpanLog log;
  TraceRecord rec;
  std::vector<double> record_ns, decode_ns, digest_ns, hash_ns, ring_ns,
      sweep_ns, replay_self_ns, demux_ns, cusum_ns, overhead_pct, skew,
      sharded_setup, demux_setup, span_inside, span_outside, residual_pct;
  const std::uint32_t run_name = log.intern("ingest.replay_run");
  const std::uint32_t demux_name = log.intern("ingest.demux_on_frame");
  std::uint32_t pass = 0;
  do {
    log.begin_pass(++pass);
    // Untraced passes of both datapaths: the overhead baseline and the
    // sharded history the staged run must reproduce.
    PassTiming plain;
    PassTiming sharded;
    std::vector<ingest::ShardCounters> shard_counts;
    bench.reference_pass(out, plain);
    bench.sharded_pass(out, sharded, &shard_counts);
    double max_delivered = 0.0;
    double sum_delivered = 0.0;
    for (const ingest::ShardCounters& c : shard_counts) {
      max_delivered = std::max(max_delivered, static_cast<double>(c.delivered));
      sum_delivered += static_cast<double>(c.delivered);
    }
    skew.push_back(max_delivered * static_cast<double>(shard_counts.size()) /
                   sum_delivered);

    log.reserve(static_cast<std::size_t>(bench.input().records) + 4096 +
                kSpanCostSamples);
    const SpanCost cost = measure_empty_span(log, kSpanCostSamples);
    PassTiming traced;
    bench.reference_pass(out, traced, &log);
    overhead_pct.push_back((traced.run_s / plain.run_s - 1.0) * 100.0);

    StagedCounts n;
    const auto staged =
        staged_sharded(bench.input(), bench.sharded_config(), log, n);
    out.gate(staged == bench.oracle().history,
             "staged sharded datapath differs from ShardedReplay history");

    const std::vector<NameTotals> t = log.totals();
    const auto total = [&](const char* name) {
      return net_total_ns(t[log.intern(name)], cost);
    };
    record_ns.push_back(per(total("pcap.next_into"), n.records));
    decode_ns.push_back(per(total("net.decode_frame_into"), n.records));
    digest_ns.push_back(per(total("net.extract_flow_digest"), n.records));
    hash_ns.push_back(per(total("ingest.flow_hash"), n.digests));
    ring_ns.push_back(per(total("ingest.slot_ring"), n.digests));
    sweep_ns.push_back(per(total("classify.sweep_flags"), n.swept_bytes));
    cusum_ns.push_back(per(total("core.cusum"), n.observe_calls));
    const double self_net = net_self_ns(t[run_name], cost);
    const double demux_net = net_total_ns(t[demux_name], cost);
    replay_self_ns.push_back(per(self_net, traced.frames));
    demux_ns.push_back(per(demux_net, traced.frames));
    residual_pct.push_back(((self_net + demux_net) / 1e9 / plain.run_s - 1.0) * 100.0);
    span_inside.push_back(cost.inside_ns);
    span_outside.push_back(cost.outside_ns);

    rec.end_pass(log, t);

    for (int i = 0; i < 9; ++i) {
      demux_setup.push_back(bench.reference_setup_sample().second);
      sharded_setup.push_back(bench.sharded_setup_sample());
    }
  } while (now_ns() < deadline);

  const Reference& ref = bench.oracle();
  std::uint64_t periods = 0;
  std::uint64_t alarms = 0;
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    periods += ref.history[i].size();
    alarms += ref.alarms[i];
  }
  out.add("pcap.record_ns", median(record_ns), "ns");
  out.add("net.decode_ns", median(decode_ns), "ns");
  out.add("net.digest_ns", median(digest_ns), "ns");
  out.add("ingest.hash_ns", median(hash_ns), "ns");
  out.add("ingest.ring_ns", median(ring_ns), "ns");
  out.add("classify.sweep_ns", median(sweep_ns), "ns");
  out.add("ingest.replay_self_ns", median(replay_self_ns), "ns");
  out.add("ingest.demux_ns", median(demux_ns), "ns");
  out.add("core.cusum_ns", median(cusum_ns), "ns");
  out.add("ingest.shard_skew", median(skew), "ratio");
  out.add("ingest.sharded_setup_s", median(sharded_setup), "s");
  out.add("ingest.demux_setup_s", median(demux_setup), "s");
  out.add("trace.overhead_pct", median(overhead_pct), "%");
  out.add("ingest.frames", static_cast<double>(ref.stats.frames), "count");
  out.add("ingest.decode_failures",
          static_cast<double>(ref.stats.decode_failures), "count");
  out.add("ingest.local_frames", static_cast<double>(ref.local), "count");
  out.add("ingest.unroutable_frames", static_cast<double>(ref.unroutable),
          "count");
  out.add("core.periods", static_cast<double>(periods), "count");
  out.add("core.alarms", static_cast<double>(alarms), "count");
  std::fprintf(stderr,
               "perfbench: empty span %.1f ns inside, %.1f ns outside; the "
               "traced run net of them is %+.1f%% off the untraced run\n",
               median(span_inside), median(span_outside), median(residual_pct));
  if (!opt.span_file.empty()) write_span_file(opt.span_file, log, rec);
  return out;
}

}  // namespace perfbench
