// Capture replay onto the discrete-event simulator clock.
//
// ReplayEngine is the reference ingest pump: it reads CaptureSource
// records into one reused pcap::Record, decodes each into one reused
// Frame, advances its sim::Scheduler to the frame's (epoch-rebased)
// capture timestamp — firing any due timers first — and hands the frame
// to every ReplaySink in registration order. Components on scheduler
// time, notably core::SynDogAgent's period timer, therefore behave as in
// simulation: a period boundary at or before a frame's timestamp closes
// before that frame is seen. The pump allocates nothing in steady state,
// whatever the capture size.
//
// Two replay clocks:
//   * kAsFastAsPossible (default): wall time never consulted; the replay
//     is a pure function of the capture bytes.
//   * kPaced: frames are throttled against obs::WallClock so capture time
//     advances at `speed` x real time. Pacing only ever sleeps — it
//     cannot reorder or drop — so results stay byte-identical to the
//     unpaced run.
#pragma once

#include <cstdint>
#include <istream>
#include <vector>

#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/time.hpp"

namespace syndog::ingest {

enum class ReplayClock : std::uint8_t {
  kAsFastAsPossible,
  kPaced,  ///< throttle to `speed` x capture time per wall time
};

/// The epoch rebase both ingest datapaths apply to every decoded frame,
/// mapping capture timestamps onto the scheduler's epoch-zero clock. A
/// first timestamp beyond 24 h is an absolute-epoch stamp from a real
/// capture and becomes the epoch; a smaller one marks a synthetic
/// capture that already starts near zero, kept as-is. Each result is
/// clamped to the previous one, so out-of-order or pre-epoch stamps can
/// never rewind the replay clock.
class EpochRebase {
 public:
  /// Replay-clock time of the next decoded frame, stamped `capture_at`.
  [[nodiscard]] util::SimTime operator()(util::SimTime capture_at) {
    if (!first_seen_) {
      first_seen_ = true;
      if (capture_at > util::SimTime::seconds(86400)) epoch_ = capture_at;
    }
    const util::SimTime at = capture_at - epoch_;
    if (at > last_) last_ = at;
    return last_;
  }

  /// Capture timestamp subtracted from every frame (0 until the first).
  [[nodiscard]] util::SimTime epoch() const { return epoch_; }
  /// The latest time returned (0 before the first frame).
  [[nodiscard]] util::SimTime last() const { return last_; }

 private:
  bool first_seen_ = false;
  util::SimTime epoch_ = util::SimTime::zero();
  util::SimTime last_ = util::SimTime::zero();
};

struct ReplayConfig {
  ReplayClock clock = ReplayClock::kAsFastAsPossible;
  double speed = 1.0;  ///< kPaced: capture seconds per wall second
  void validate() const;
};

/// Counts of one pass over a capture, on either ingest datapath.
struct PipelineStats {
  std::uint64_t records = 0;          ///< capture records pulled
  std::uint64_t frames = 0;           ///< records that decoded to frames
  std::uint64_t bytes = 0;            ///< captured bytes of those frames
  std::uint64_t decode_failures = 0;  ///< non-Ethernet/IPv4 or mangled
  bool truncated = false;             ///< source ended mid-record
};

/// Receives frames in capture order; the engine's scheduler has already
/// been advanced to `at` (so any timer due earlier has fired). `frame` is
/// the engine's reused buffer: copy it to keep it past the call.
class ReplaySink {
 public:
  virtual ~ReplaySink() = default;
  virtual void on_frame(util::SimTime at, const Frame& frame) = 0;
};

class ReplayEngine final {
 public:
  /// The stream must outlive the engine. Throws on an unrecognizable
  /// capture format (before any record is read).
  explicit ReplayEngine(std::istream& in, ReplayConfig cfg = {});

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] CaptureFormat format() const { return source_.format(); }

  /// Registers a replay sink (must outlive run()).
  void add_sink(ReplaySink& sink);

  /// Wires scheduler instruments into `registry` now, and the counters
  /// ingest.{records,frames,bytes,decode_failures,truncated_captures}
  /// when run() finishes.
  void attach_observer(obs::Registry& registry);

  /// Streams the whole capture. Call once.
  const PipelineStats& run();

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] pcap::ReadEnd end_state() const {
    return source_.end_state();
  }
  /// Capture timestamp subtracted from every frame (0 until the first
  /// frame, and for captures that start within 24 h of zero).
  [[nodiscard]] util::SimTime epoch() const { return rebase_.epoch(); }
  [[nodiscard]] util::SimTime last_frame_at() const { return rebase_.last(); }
  [[nodiscard]] std::uint64_t frames_replayed() const {
    return stats_.frames;
  }

 private:
  void pace(util::SimTime at);
  void publish_observations();

  ReplayConfig cfg_;
  CaptureSource source_;
  sim::Scheduler scheduler_;
  std::vector<ReplaySink*> sinks_;
  pcap::Record record_;  ///< reused record buffer
  Frame frame_;          ///< reused decode target
  EpochRebase rebase_;
  PipelineStats stats_;
  obs::Registry* registry_ = nullptr;
  obs::WallClock wall_;
  std::int64_t pace_wall0_ns_ = 0;
  util::SimTime pace_sim0_ = util::SimTime::zero();
  bool ran_ = false;
};

}  // namespace syndog::ingest
