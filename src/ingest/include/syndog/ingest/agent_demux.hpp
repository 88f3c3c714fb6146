// Multi-agent capture demultiplexer.
//
// Routes replayed frames to one core::SynDogAgent per stub, so one pass
// over one capture drives N independent detectors, each with the same
// period reports, alarms and counters as in the simulated topologies.
// Each frame goes through the StubRouter (stub_router.hpp) straight into
// the agent entry (on_outbound / on_inbound) of the stubs whose
// interfaces it crosses: there is no per-stub sim::LeafRouter, so
// no RouterStats either. LAN-local frames count in
// local_frames(), frames matching no stub with default_stub = -1 in
// unroutable_frames().
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "syndog/core/agent.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/stub_router.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/sim/scheduler.hpp"

namespace syndog::ingest {

struct DemuxOptions {
  core::AgentMode mode = core::AgentMode::kFirstMile;
  /// Stub index credited with frames matching no prefix; -1 drops them
  /// into unroutable_frames() instead.
  int default_stub = 0;
};

class AgentDemux final : public ReplaySink {
 public:
  /// Builds one agent per stub on `scheduler` (typically
  /// ReplayEngine::scheduler(); must outlive the demux). Agents start their
  /// period timers immediately, so construct the demux before replaying.
  AgentDemux(sim::Scheduler& scheduler, std::vector<StubSpec> stubs,
             core::SynDogParams params, DemuxOptions options = {});
  ~AgentDemux() override;

  AgentDemux(const AgentDemux&) = delete;
  AgentDemux& operator=(const AgentDemux&) = delete;

  /// Wires agent instruments and demux counters ("ingest.demux.*") into
  /// `registry`, which must outlive the demux.
  void attach_observer(obs::Registry& registry);

  void on_frame(util::SimTime at, const Frame& frame) override;

  /// Closes the final partial observation period on every agent by
  /// advancing the shared scheduler to the next period boundary. Call
  /// once, after the replay.
  void close_final_period();

  [[nodiscard]] std::size_t stub_count() const { return stubs_.size(); }
  [[nodiscard]] const StubSpec& stub(std::size_t i) const;
  [[nodiscard]] const core::SynDogAgent& agent(std::size_t i) const;
  [[nodiscard]] core::SynDogAgent& agent(std::size_t i);
  [[nodiscard]] const std::vector<core::AlarmEvent>& alarms(
      std::size_t i) const;
  /// Frames whose src and dst fall inside the same stub.
  [[nodiscard]] std::uint64_t local_frames() const { return local_; }
  /// Frames matching no stub while default_stub is -1.
  [[nodiscard]] std::uint64_t unroutable_frames() const {
    return unroutable_;
  }

 private:
  struct Stub;

  sim::Scheduler& scheduler_;
  core::SynDogParams params_;
  StubRouter router_;
  std::vector<std::unique_ptr<Stub>> stubs_;
  std::uint64_t local_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::Counter* local_counter_ = nullptr;
  obs::Counter* unroutable_counter_ = nullptr;
};

}  // namespace syndog::ingest
