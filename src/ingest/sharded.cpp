// syndog-lint: hotpath-file -- per-digest work must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#include "syndog/ingest/sharded.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <exception>
#include <latch>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "syndog/classify/batch.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/pcap/pcapng.hpp"

namespace syndog::ingest {

namespace {

/// Stream-source block size; a record longer than one block grows the
/// buffer to fit it (pcap::decode_record_header bounds how far).
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

/// Digests the producer commits to a shard's ring before it publishes them
/// with one store: 1 KiB of 32-byte digests, so the ring's head cursor
/// crosses to the consumer's core once per 16 slot lines instead of once
/// per digest.
constexpr std::size_t kPublishBatch = 32;

/// Where the consumer threads go: the calling (producer) thread's allowed
/// CPUs, less the one it runs on. Empty off Linux or when that leaves
/// none, and then the kernel places them.
class WorkerCpus {
 public:
#if defined(__linux__)
  WorkerCpus() {
    CPU_ZERO(&set_);
    if (sched_getaffinity(0, sizeof set_, &set_) != 0) CPU_ZERO(&set_);
    const int producer = sched_getcpu();
    if (producer >= 0 && producer < CPU_SETSIZE) CPU_CLR(producer, &set_);
    count_ = static_cast<std::size_t>(CPU_COUNT(&set_));
  }

  /// Binds the calling thread to worker `i`'s CPU: the i-th of the set,
  /// reused from the first when there are more workers than CPUs. A
  /// refusal leaves the thread unbound.
  void bind(std::size_t i) const {
    if (count_ == 0) return;
    std::size_t skip = i % count_;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &set_) || skip-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }

 private:
  cpu_set_t set_;
  std::size_t count_ = 0;
#else
  void bind(std::size_t /*i*/) const {}
#endif
};

/// One direction's open-period flag bytes: a flush_threshold-byte slice
/// of the shard's flag arena, swept with classify::sweep_flags whenever
/// it fills and when the period closes.
struct FlagBatch {
  std::uint8_t* bytes = nullptr;
  std::size_t size = 0;
  classify::FlagSweep swept;  ///< counts of the bytes swept this period

  void flush() {
    if (size == 0) return;
    swept += classify::sweep_flags(std::span<const std::uint8_t>{bytes, size});
    size = 0;
  }
  void append(std::uint8_t flag, std::size_t flush_threshold) {
    bytes[size] = flag;
    if (++size == flush_threshold) flush();
  }
};

/// Flag-byte batches and period table for one stub within one shard.
struct StubShardState {
  FlagBatch out;
  FlagBatch in;
  /// periods[p] = mode-selected {syn, synack} this shard saw in period p.
  /// Sparse at the tail: periods past the last nonzero entry are omitted.
  std::vector<std::array<std::int64_t, 2>> periods;
};

}  // namespace

/// One ring plus the consumer-owned counting state behind it. The
/// producer touches only `ring`; everything else belongs to the shard's
/// worker thread until it arrives at the merge latch. After that, each
/// stub's period table belongs to the thread that claims the stub.
struct ShardedReplay::Shard {
  Shard(std::size_t ring_capacity, std::size_t stub_count,
        std::size_t flush_threshold)
      : ring(ring_capacity),
        // Construction-time sizing, left uninitialized: a batch writes
        // each byte before sweeping it, and batches never grow.
        flag_arena(std::make_unique_for_overwrite<std::uint8_t[]>(
            2 * stub_count * flush_threshold)) {
    stubs.resize(stub_count);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
    std::uint8_t* next = flag_arena.get();
    for (StubShardState& s : stubs) {
      s.out.bytes = next;
      s.in.bytes = next + flush_threshold;
      next += 2 * flush_threshold;
    }
  }

  SlotRing<net::FlowDigest> ring;
  std::atomic<bool> done{false};  ///< producer: no more digests coming
  std::exception_ptr failure;     ///< consumer: set before early exit

  // -- consumer-owned state ----------------------------------------------
  /// Every stub's two flag batches, in one allocation.
  std::unique_ptr<std::uint8_t[]> flag_arena;
  std::vector<StubShardState> stubs;
  std::int64_t cur_period = 0;
  std::int64_t next_boundary_ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t local = 0;
  std::uint64_t unroutable = 0;
};

void ShardedConfig::validate() const {
  if (threads == 0) {
    throw std::invalid_argument("ShardedConfig: threads must be >= 1");
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument(
        "ShardedConfig: ring_capacity must be positive");
  }
  if (flush_threshold == 0) {
    throw std::invalid_argument(
        "ShardedConfig: flush_threshold must be positive");
  }
  params.validate();
  health.validate();
}

ShardedReplay::ShardedReplay(std::vector<StubSpec> stubs, ShardedConfig cfg)
    : stubs_(std::move(stubs)),
      cfg_((cfg.validate(), cfg)),
      router_(stubs_, cfg_.default_stub),
      t0_ns_(cfg_.params.observation_period.ns()) {
  shards_.reserve(cfg_.threads);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    shards_.push_back(std::make_unique<Shard>(  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
        cfg_.ring_capacity, stubs_.size(), cfg_.flush_threshold));
  }
}

ShardedReplay::ShardedReplay(std::istream& in, std::vector<StubSpec> stubs,
                             ShardedConfig cfg)
    : ShardedReplay(std::move(stubs), cfg) {
  in_ = &in;
  source_.emplace(in);
}

ShardedReplay::ShardedReplay(net::ByteSpan capture,
                             std::vector<StubSpec> stubs, ShardedConfig cfg)
    : ShardedReplay(std::move(stubs), cfg) {
  span_ = capture;
  // pcapng keeps the record-at-a-time reader over an owned copy (the
  // zero-copy path is classic pcap, the format line-rate captures use);
  // classic pcap hands the reader only its 24-byte file header, so a
  // malformed header throws the same error as in stream mode.
  const std::size_t bridged = pcap::is_pcapng(capture)
                                  ? capture.size()
                                  : std::min<std::size_t>(capture.size(), 24);
  owned_in_.emplace(
      std::string(reinterpret_cast<const char*>(capture.data()), bridged),
      std::ios::binary);
  source_.emplace(*owned_in_);
}

ShardedReplay::~ShardedReplay() = default;

const StubSpec& ShardedReplay::stub(std::size_t i) const {
  return stubs_.at(i);
}

const AgentDemux& ShardedReplay::agents() const {
  if (!agents_) {
    throw std::logic_error("ShardedReplay: agents exist once run() merged");
  }
  return *agents_;
}

const core::SynDogAgent& ShardedReplay::agent(std::size_t i) const {
  return agents().agent(i);
}

const std::vector<core::AlarmEvent>& ShardedReplay::alarms(
    std::size_t i) const {
  return agents().alarms(i);
}

ShardCounters ShardedReplay::shard(std::size_t i) const {
  return ShardCounters{shards_.at(i)->delivered};
}

void ShardedReplay::run() {
  if (ran_) {
    throw std::logic_error("ShardedReplay::run: already ran (call once)");
  }
  ran_ = true;

  // Every thread of the pass ends in the merge: each consumer once its
  // ring is drained, the caller once it has read the capture and built
  // the agents. Each arrives at `counted` exactly once, failed or not,
  // and a failure anywhere skips the merge. Past the latch the shard
  // tables are final, and a stub's tables and agent are touched only by
  // the thread that claimed the stub. The agents share nothing writable:
  // no registry is attached to them, alarms land in the stub's own
  // vector, clock_ is not touched once they are built, and src/core
  // keeps no mutable global (lint rule concurrency.shared_mutable_static).
  std::latch counted(static_cast<std::ptrdiff_t>(shards_.size()) + 1);
  std::exception_ptr produce_failure;
  std::unique_ptr<AgentDemux> agents;
  std::int64_t total_periods = 0;
  std::atomic<std::size_t> next_stub{0};
  // One slot per participant: the consumers', then the caller's.
  std::vector<std::exception_ptr> merge_failures(shards_.size() + 1);
  const auto merge = [&](std::exception_ptr& failure) {
    counted.arrive_and_wait();
    const bool failed =
        produce_failure != nullptr ||
        std::any_of(shards_.begin(), shards_.end(),
                    [](const std::unique_ptr<Shard>& sh) {
                      return sh->failure != nullptr;
                    });
    if (failed) return;
    try {
      for (std::size_t s = next_stub++; s < stubs_.size(); s = next_stub++) {
        close_stub(agents->agent(s), s, total_periods);
      }
    } catch (...) {
      failure = std::current_exception();
    }
  };

  // Each worker gets a CPU of its own, away from the producer. Left to
  // itself the kernel may start all of them on the producer's CPU and
  // keep them there for the whole run, which serializes the pipeline, or
  // spread them, depending on the load the host saw in the last minute.
  const WorkerCpus cpus;
  const auto consume = [&](std::size_t i) {
    Shard& sh = *shards_[i];
    cpus.bind(i);
    try {
      consume_shard(sh);
    } catch (...) {
      sh.failure = std::current_exception();
      // Keep draining so the producer's blocking publish never
      // deadlocks on a dead consumer; counts no longer matter.
      for (;;) {
        const std::span<const net::FlowDigest> r = sh.ring.readable();
        if (r.empty()) {
          if (sh.done.load(std::memory_order_acquire) && sh.ring.empty()) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
        sh.ring.release(r.size());
      }
    }
    merge(merge_failures[i]);
  };
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());  // syndog-lint: allow(hotpath.allocation) -- run()-entry sizing, before any digest flows
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    try {
      workers.emplace_back(consume, i);  // syndog-lint: allow(hotpath.allocation) -- one spawn per shard at run() entry
    } catch (...) {
      // Consumers i.. never start, so they never arrive: arrive for them,
      // and read no capture, so no digest waits in a ring nobody drains.
      produce_failure = std::current_exception();
      counted.count_down(static_cast<std::ptrdiff_t>(shards_.size() - i));
      break;
    }
  }

  if (!produce_failure) {
    try {
      produce();
    } catch (...) {
      produce_failure = std::current_exception();
    }
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->ring.flush();
    shard->done.store(true, std::memory_order_release);
  }
  // The agents are built while the consumers drain their rings' tails.
  if (!produce_failure) {
    try {
      agents = std::make_unique<AgentDemux>(  // syndog-lint: allow(hotpath.allocation) -- once per run(), after the last digest is published
          clock_, stubs_, cfg_.params,
          DemuxOptions{cfg_.mode, cfg_.default_stub});
    } catch (...) {
      produce_failure = std::current_exception();
    }
    total_periods = rebase_.last().ns() / t0_ns_ + 1;
  }
  merge(merge_failures.back());
  for (std::thread& w : workers) w.join();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->failure) std::rethrow_exception(shard->failure);
  }
  if (produce_failure) std::rethrow_exception(produce_failure);
  for (const std::exception_ptr& failure : merge_failures) {
    if (failure) std::rethrow_exception(failure);
  }

  agents_ = std::move(agents);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    local_ += shard->local;
    unroutable_ += shard->unroutable;
  }
  stats_.truncated = end_ == pcap::ReadEnd::kTruncated;
  publish_observations();
}

void ShardedReplay::produce() {
  if (format() == CaptureFormat::kPcapng) {
    produce_pcapng();
  } else if (in_ == nullptr) {
    produce_span();
  } else {
    produce_stream();
  }
}

ShardedReplay::WalkEnd ShardedReplay::walk_records(const std::uint8_t* base,
                                                   std::size_t size,
                                                   std::size_t pos) {
  const pcap::FileHeader file = *source_->pcap_header();
  // The record walk chases a serial dependency (this record's length ->
  // next record's address), which a cold span turns into one DRAM-latency
  // stall per record. Streaming prefetch a few KiB ahead keeps the walk
  // bandwidth-bound instead — the same effect block-copying into a warm
  // buffer has, without writing 1 MiB blocks nobody reads twice.
  constexpr std::size_t kPrefetchAheadBytes = 4096;
  std::size_t prefetched = pos;
  pcap::RecordHeader rec;
  for (;;) {
    const std::size_t ahead = std::min(pos + kPrefetchAheadBytes, size);
    for (; prefetched < ahead; prefetched += 64) {
      __builtin_prefetch(base + prefetched, 0, 3);
    }
    if (size - pos < 16) return {pos, 16, false};
    if (!pcap::decode_record_header(file, base + pos, rec)) {
      return {pos, 0, true};
    }
    const std::size_t length = 16 + std::size_t{rec.incl_len};
    if (size - pos < length) return {pos, length, false};
    feed_record(rec.timestamp_ns, rec.orig_len,
                net::ByteSpan{base + pos + 16, rec.incl_len});
    pos += length;
  }
}

/// Classic pcap over an in-memory span: the record walk IS the buffer —
/// no block reads, no memmove, no copy per byte. Nothing left at a record
/// boundary is kEof; a partial record or corrupt framing is kTruncated.
void ShardedReplay::produce_span() {
  // source_ parsed the 24-byte file header.
  const WalkEnd end = walk_records(span_.data(), span_.size(), 24);
  end_ = !end.corrupt && end.pos == span_.size() ? pcap::ReadEnd::kEof
                                                 : pcap::ReadEnd::kTruncated;
}

/// Classic pcap over a stream: source_ consumed the file header; each
/// ~1 MiB block read is walked exactly like a span, so steady state costs
/// one istream::read per block instead of two per record. The partial
/// record at a block's end moves to the front before the next read.
void ShardedReplay::produce_stream() {
  std::vector<std::uint8_t> buf;
  buf.resize(kBlockBytes);  // syndog-lint: allow(hotpath.allocation) -- one block buffer per capture, sized up front
  std::size_t filled = 0;
  for (;;) {
    const std::size_t want = buf.size() - filled;
    in_->read(reinterpret_cast<char*>(buf.data() + filled),
              static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in_->gcount());
    filled += got;
    const WalkEnd end = walk_records(buf.data(), filled, 0);
    if (end.corrupt) {
      end_ = pcap::ReadEnd::kTruncated;
      return;
    }
    if (got < want) {  // the stream is exhausted
      end_ = end.pos == filled ? pcap::ReadEnd::kEof
                               : pcap::ReadEnd::kTruncated;
      return;
    }
    std::memmove(buf.data(), buf.data() + end.pos, filled - end.pos);
    filled -= end.pos;
    if (end.need > buf.size()) {
      buf.resize(end.need);  // syndog-lint: allow(hotpath.allocation) -- only for a record longer than a block, at most pcap::kMaxRecordBytes
    }
  }
}

/// pcapng: the record-at-a-time reader — correctness over peak rate off
/// the classic format.
void ShardedReplay::produce_pcapng() {
  pcap::Record rec;
  while (source_->next(rec)) {
    feed_record(rec.timestamp.ns(), rec.orig_len,
                net::ByteSpan{rec.data.data(), rec.data.size()});
  }
  end_ = source_->end_state();
}

void ShardedReplay::feed_record(std::int64_t ts_ns, std::uint32_t orig_len,
                                net::ByteSpan data) {
  ++stats_.records;
  net::FlowDigest digest;
  if (!net::extract_flow_digest(data, digest)) {
    ++stats_.decode_failures;
    return;
  }
  stats_.bytes += data.size();
  ++stats_.frames;
  // The first *decoded* frame picks the epoch, as in ReplayEngine.
  digest.at_ns = rebase_(util::SimTime::nanoseconds(ts_ns)).ns();
  digest.wire_bytes = orig_len;

  Shard& sh = *shards_[shard_of(flow_hash(digest), shards_.size())];
  net::FlowDigest* slot = sh.ring.try_claim();
  if (slot == nullptr) {
    // Ring full: publish the pending batch, then block (never drop) until
    // the consumer frees slots. A crashed consumer keeps draining its
    // ring, so this always ends.
    sh.ring.flush();
    do {
      std::this_thread::yield();
      slot = sh.ring.try_claim();
    } while (slot == nullptr);
  }
  *slot = digest;
  if (sh.ring.commit() == kPublishBatch) sh.ring.flush();
}

namespace {

/// Closes the shard's open period `p` for every stub: sweep the
/// remaining flag bytes and record the SYNs and SYN/ACKs the agent
/// counts.
void close_shard_period(std::vector<StubShardState>& stubs, std::int64_t p,
                        core::CountedInterfaces counted) {
  for (StubShardState& s : stubs) {
    s.out.flush();
    s.in.flush();
    const auto side = [&s](core::Interface i) -> const classify::FlagSweep& {
      return i == core::Interface::kOutbound ? s.out.swept : s.in.swept;
    };
    const auto syn = static_cast<std::int64_t>(side(counted.syns).syn);
    const auto synack =
        static_cast<std::int64_t>(side(counted.syn_acks).syn_ack);
    if ((syn | synack) != 0) {
      if (s.periods.size() <= static_cast<std::size_t>(p)) {
        s.periods.resize(static_cast<std::size_t>(p) + 1);  // syndog-lint: allow(hotpath.allocation) -- once per non-empty period per stub, off the per-digest path
      }
      s.periods[static_cast<std::size_t>(p)] = {syn, synack};
    }
    s.out.swept = classify::FlagSweep{};
    s.in.swept = classify::FlagSweep{};
  }
}

}  // namespace

void ShardedReplay::consume_shard(Shard& sh) {
  const std::size_t flush_threshold = cfg_.flush_threshold;
  const core::CountedInterfaces counted = core::counted_interfaces(cfg_.mode);

  sh.cur_period = 0;
  sh.next_boundary_ns = t0_ns_;

  for (;;) {
    const std::span<const net::FlowDigest> run = sh.ring.readable();
    if (run.empty()) {
      if (sh.done.load(std::memory_order_acquire) && sh.ring.empty()) break;
      std::this_thread::yield();
      continue;
    }
    for (const net::FlowDigest& d : run) {
      if (d.at_ns >= sh.next_boundary_ns) {
        // A frame exactly on the boundary counts into the next period
        // (the reference scheduler fires the rollover first).
        close_shard_period(sh.stubs, sh.cur_period, counted);
        sh.cur_period = d.at_ns / t0_ns_;
        sh.next_boundary_ns = (sh.cur_period + 1) * t0_ns_;
      }
      const StubRoute route = router_.route(d.src, d.dst);
      if (route.local) {
        ++sh.local;
        continue;
      }
      if (route.outbound >= 0) {
        sh.stubs[static_cast<std::size_t>(route.outbound)].out.append(
            d.flags, flush_threshold);
      }
      if (route.inbound >= 0) {
        sh.stubs[static_cast<std::size_t>(route.inbound)].in.append(
            d.flags, flush_threshold);
      }
      if (route.unroutable()) ++sh.unroutable;
    }
    sh.delivered += run.size();
    sh.ring.release(run.size());
  }
  close_shard_period(sh.stubs, sh.cur_period, counted);
  sh.flag_arena.reset();  // every flag byte is swept: free it before the merge
}

/// One stub's share of the merge: its per-period counts summed across
/// shards in shard order close `agent`'s periods in order, then the
/// stub's shard tables are freed. Replay period ends are exact, so no
/// period is late (missed = 0).
void ShardedReplay::close_stub(core::SynDogAgent& agent, std::size_t s,
                               std::int64_t total_periods) {
  agent.set_health_policy(cfg_.health);
  for (std::int64_t p = 0; p < total_periods; ++p) {
    std::int64_t syn = 0;
    std::int64_t synack = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const std::vector<std::array<std::int64_t, 2>>& per =
          shard->stubs[s].periods;
      if (static_cast<std::size_t>(p) < per.size()) {
        syn += per[static_cast<std::size_t>(p)][0];
        synack += per[static_cast<std::size_t>(p)][1];
      }
    }
    agent.close_period(util::SimTime::nanoseconds((p + 1) * t0_ns_), syn,
                       synack, 0);
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    // Consumed: free the table now (clear() would keep its capacity).
    std::vector<std::array<std::int64_t, 2>>().swap(shard->stubs[s].periods);
  }
}

void ShardedReplay::publish_observations() {
  if (registry_ == nullptr) return;
  registry_->counter("ingest.sharded.records").add(stats_.records);
  registry_->counter("ingest.sharded.frames").add(stats_.frames);
  registry_->counter("ingest.sharded.bytes").add(stats_.bytes);
  registry_->counter("ingest.sharded.decode_failures")
      .add(stats_.decode_failures);
  registry_->counter("ingest.sharded.truncated_captures")
      .add(stats_.truncated ? 1 : 0);
  registry_->counter("ingest.sharded.local_frames").add(local_);
  registry_->counter("ingest.sharded.unroutable_frames").add(unroutable_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "ingest.shard." + std::to_string(i);
    registry_->counter(prefix + ".delivered").add(shards_[i]->delivered);
  }
}

}  // namespace syndog::ingest
