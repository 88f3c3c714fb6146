// Sharded multi-core capture ingest (RSS-style rings + batched classify).
//
// The reference path (CaptureSource -> ReplayEngine -> AgentDemux) is
// byte-deterministic but single-threaded: one thread decodes, routes, and
// counts every frame. ShardedReplay splits that work the way a NIC's RSS
// indirection does: the producer thread frames the capture, extracts a
// net::FlowDigest per record, and hashes the 5-tuple with the *symmetric*
// flow hash (flow_hash.hpp) so a flow's SYN and its returning SYN-ACK
// land in the same SlotRing; one consumer thread per ring owns that
// shard's per-stub period tables outright — no cross-thread counter
// state, no locks, only the SPSC ring cursors. Consumers batch flag
// bytes per (stub, direction) and count them with classify::sweep_flags
// (SIMD where available) instead of classifying frame by frame.
//
// Every decision the two datapaths share has one implementation: the
// format sniff (pcap::is_pcapng) and file-header parse (CaptureSource,
// which both constructors build), record framing
// and its length bound (pcap::decode_record_header), the epoch rebase
// (EpochRebase), stub routing (StubRouter), the mode-to-interface rule
// (core::counted_interfaces), and the period rollover
// (core::SynDogAgent::close_period).
//
// Determinism contract: per-shard period tables merge in stable shard
// order, and each stub's summed counts close its periods on the
// core::SynDogAgent of an AgentDemux that run() builds once the capture
// is read. Every thread of the pass merges: the consumers and the caller
// meet once at a std::latch, then claim stubs off one atomic counter,
// and the thread that claims a stub closes all of its periods. Which
// thread that is cannot show in the output, because the agents share
// nothing writable: no registry is attached to them, alarms land in each
// stub's own vector, their never-run scheduler is not touched once they
// are built, and src/core keeps no mutable global (lint rule
// concurrency.shared_mutable_static). Because period counts are integers
// and integer addition is associative, history(i) is byte-identical —
// every PeriodReport field, doubles included — to the single-threaded
// ReplayEngine + AgentDemux oracle's for the same capture, for any
// thread count, and so are the alarms' times and reports. Tests assert
// this with operator== on the full report structs.
//
// Scope: replay analytics. No pacing and no fault injection; the agents
// see period counts, not packets, so alarms carry no MAC suspects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "syndog/core/agent.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/stub_router.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/time.hpp"

namespace syndog::ingest {

struct ShardedConfig {
  /// Consumer threads == shards. 1 still runs the threaded datapath (one
  /// producer + one consumer); the equivalence tests sweep 1..4. run()
  /// binds each consumer to a CPU of the caller's affinity mask other
  /// than the one the caller runs on, reusing them in turn when there
  /// are more consumers than CPUs. The consumers and the caller then
  /// share the merge.
  std::size_t threads = 4;
  std::size_t ring_capacity = std::size_t{1} << 15;  ///< digests per shard
  /// Flag bytes buffered per (stub, direction) before a SIMD sweep folds
  /// them into the open period's partial counts.
  std::size_t flush_threshold = 4096;
  core::SynDogParams params;
  core::AgentHealthPolicy health;
  core::AgentMode mode = core::AgentMode::kFirstMile;
  /// Stub index credited with frames matching no prefix; -1 counts them
  /// unroutable instead (the StubRouter rule, as DemuxOptions).
  int default_stub = 0;
  /// Checks every field but default_stub, which the StubRouter checks
  /// against the stub list.
  void validate() const;
};

/// Per-shard delivery counter, surfaced as ingest.shard.<i>.delivered.
/// The producer blocks on a full ring, so a shard never drops a digest.
struct ShardCounters {
  std::uint64_t delivered = 0;
};

class ShardedReplay {
 public:
  /// Sniffs the stream's format immediately (throws on garbage); reads no
  /// records until run(). The stream must outlive the replay.
  ShardedReplay(std::istream& in, std::vector<StubSpec> stubs,
                ShardedConfig cfg = {});
  /// Zero-copy variant for an in-memory capture (an mmap'ed file, a
  /// synthesized byte string): classic pcap frames directly out of
  /// `capture` with no block copies — the line-rate path — while pcapng
  /// falls back to an owned stream over the same bytes. The span must
  /// stay valid until run() returns.
  ShardedReplay(net::ByteSpan capture, std::vector<StubSpec> stubs,
                ShardedConfig cfg = {});
  ~ShardedReplay();

  ShardedReplay(const ShardedReplay&) = delete;
  ShardedReplay& operator=(const ShardedReplay&) = delete;

  [[nodiscard]] CaptureFormat format() const { return source_->format(); }

  /// Counters land in `registry` when run() finishes:
  /// ingest.sharded.{records,frames,bytes,decode_failures,
  /// truncated_captures,local_frames,unroutable_frames} and
  /// ingest.shard.<i>.delivered. Distinct from the reference
  /// engine's ingest.* names so both datapaths can share a registry.
  void attach_observer(obs::Registry& registry) { registry_ = &registry; }

  /// Streams the whole capture through the shards and merges. Call once.
  void run();

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] pcap::ReadEnd end_state() const { return end_; }

  [[nodiscard]] std::size_t stub_count() const { return stubs_.size(); }
  [[nodiscard]] const StubSpec& stub(std::size_t i) const;
  /// Stub `i`'s agent; exists once run() has merged (throws before).
  [[nodiscard]] const core::SynDogAgent& agent(std::size_t i) const;
  /// Per-period reports for stub `i`, byte-identical to the reference
  /// AgentDemux agent's history() for the same capture and parameters.
  [[nodiscard]] const std::vector<core::PeriodReport>& history(
      std::size_t i) const {
    return agent(i).history();
  }
  /// Alarms raised by stub `i`'s agent; same times and reports as the
  /// reference AgentDemux::alarms(i), with no suspects.
  [[nodiscard]] const std::vector<core::AlarmEvent>& alarms(
      std::size_t i) const;

  [[nodiscard]] std::uint64_t local_frames() const { return local_; }
  [[nodiscard]] std::uint64_t unroutable_frames() const {
    return unroutable_;
  }
  [[nodiscard]] util::SimTime last_frame_at() const {
    return rebase_.last();
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] ShardCounters shard(std::size_t i) const;

 private:
  struct Shard;

  ShardedReplay(std::vector<StubSpec> stubs, ShardedConfig cfg);
  void produce();
  void produce_span();
  void produce_stream();
  void produce_pcapng();
  /// Where walk_records stopped: at corrupt framing, or at `pos`, the
  /// first record not wholly inside the bytes, which is `need` bytes long
  /// (header included).
  struct WalkEnd {
    std::size_t pos;
    std::size_t need;
    bool corrupt;
  };
  /// Frames the whole classic-pcap records in bytes [pos, size) and
  /// feeds each.
  WalkEnd walk_records(const std::uint8_t* base, std::size_t size,
                       std::size_t pos);
  /// Decode + rebase one record and publish its digest to its shard.
  void feed_record(std::int64_t ts_ns, std::uint32_t orig_len,
                   net::ByteSpan data);
  void consume_shard(Shard& shard);
  void close_stub(core::SynDogAgent& agent, std::size_t s,
                  std::int64_t total_periods);
  void publish_observations();
  [[nodiscard]] const AgentDemux& agents() const;

  std::istream* in_ = nullptr;  ///< null in span mode
  net::ByteSpan span_{};        ///< empty in stream mode
  /// Span mode's stream over the file header (classic pcap) or the whole
  /// capture (pcapng), read by source_.
  std::optional<std::istringstream> owned_in_;
  std::optional<CaptureSource> source_;
  std::vector<StubSpec> stubs_;
  ShardedConfig cfg_;
  StubRouter router_;
  std::int64_t t0_ns_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  EpochRebase rebase_;
  sim::Scheduler clock_;  ///< the agents' scheduler; never run
  std::unique_ptr<AgentDemux> agents_;
  PipelineStats stats_;
  pcap::ReadEnd end_ = pcap::ReadEnd::kStreaming;
  std::uint64_t local_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::Registry* registry_ = nullptr;
  bool ran_ = false;
};

}  // namespace syndog::ingest
