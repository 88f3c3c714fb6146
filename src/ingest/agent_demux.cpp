#include "syndog/ingest/agent_demux.hpp"

namespace syndog::ingest {

struct AgentDemux::Stub {
  StubSpec spec;
  core::SynDogAgent agent;
  std::vector<core::AlarmEvent> alarms;

  Stub(sim::Scheduler& scheduler, StubSpec stub_spec,
       const core::SynDogParams& params, core::AgentMode mode)
      : spec(std::move(stub_spec)),
        agent(spec.prefix, scheduler, params,
              [this](const core::AlarmEvent& ev) { alarms.push_back(ev); },
              mode) {}
};

AgentDemux::AgentDemux(sim::Scheduler& scheduler, std::vector<StubSpec> stubs,
                       core::SynDogParams params, DemuxOptions options)
    : scheduler_(scheduler),
      params_((params.validate(), params)),
      router_(stubs, options.default_stub) {
  stubs_.reserve(stubs.size());
  for (StubSpec& spec : stubs) {
    stubs_.push_back(std::make_unique<Stub>(scheduler, std::move(spec),
                                            params_, options.mode));
  }
}

AgentDemux::~AgentDemux() = default;

void AgentDemux::attach_observer(obs::Registry& registry) {
  for (const std::unique_ptr<Stub>& stub : stubs_) {
    stub->agent.attach_observer(registry);
  }
  local_counter_ = &registry.counter("ingest.demux.local_frames");
  unroutable_counter_ = &registry.counter("ingest.demux.unroutable_frames");
}

void AgentDemux::on_frame(util::SimTime at, const Frame& frame) {
  const StubRoute route =
      router_.route(frame.packet.ip.src.value(), frame.packet.ip.dst.value());
  if (route.local) {
    ++local_;
    if (local_counter_ != nullptr) local_counter_->add();
    return;
  }
  if (route.outbound >= 0) {
    stubs_[static_cast<std::size_t>(route.outbound)]->agent.on_outbound(
        at, frame.packet);
  }
  if (route.inbound >= 0) {
    stubs_[static_cast<std::size_t>(route.inbound)]->agent.on_inbound(
        at, frame.packet);
  }
  if (route.unroutable()) {
    ++unroutable_;
    if (unroutable_counter_ != nullptr) unroutable_counter_->add();
  }
}

void AgentDemux::close_final_period() {
  const std::int64_t t0_ns = params_.observation_period.ns();
  const std::int64_t boundary_ns =
      (scheduler_.now().ns() / t0_ns + 1) * t0_ns;
  scheduler_.run_until(util::SimTime::nanoseconds(boundary_ns));
}

const StubSpec& AgentDemux::stub(std::size_t i) const {
  return stubs_.at(i)->spec;
}

const core::SynDogAgent& AgentDemux::agent(std::size_t i) const {
  return stubs_.at(i)->agent;
}

core::SynDogAgent& AgentDemux::agent(std::size_t i) {
  return stubs_.at(i)->agent;
}

const std::vector<core::AlarmEvent>& AgentDemux::alarms(std::size_t i) const {
  return stubs_.at(i)->alarms;
}

}  // namespace syndog::ingest
