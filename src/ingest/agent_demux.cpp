#include "syndog/ingest/agent_demux.hpp"

namespace syndog::ingest {

struct AgentDemux::Stub {
  StubSpec spec;
  sim::LeafRouter router;
  core::SynDogAgent agent;
  std::vector<core::AlarmEvent> alarms;

  Stub(sim::Scheduler& scheduler, StubSpec stub_spec,
       const core::SynDogParams& params, core::AgentMode mode,
       std::uint32_t index)
      : spec(std::move(stub_spec)),
        router(spec.prefix, net::MacAddress::for_host(index)),
        agent(router, scheduler, params,
              [this](const core::AlarmEvent& ev) { alarms.push_back(ev); },
              mode) {}
};

AgentDemux::AgentDemux(sim::Scheduler& scheduler, std::vector<StubSpec> stubs,
                       core::SynDogParams params, DemuxOptions options)
    : scheduler_(scheduler),
      params_((params.validate(), params)),
      router_(stubs, options.default_stub) {
  stubs_.reserve(stubs.size());
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    stubs_.push_back(std::make_unique<Stub>(scheduler, std::move(stubs[i]),
                                            params_, options.mode,
                                            static_cast<std::uint32_t>(i)));
  }
}

AgentDemux::~AgentDemux() = default;

void AgentDemux::attach_observer(obs::EventTracer* tracer,
                                 obs::Registry& registry) {
  for (const std::unique_ptr<Stub>& stub : stubs_) {
    stub->router.attach_observer(registry, stub->spec.name);
    stub->agent.attach_observer(tracer, registry);
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
    stubs_[static_cast<std::size_t>(route.outbound)]
        ->router.forward_from_intranet(at, frame.packet);
  }
  if (route.inbound >= 0) {
    stubs_[static_cast<std::size_t>(route.inbound)]
        ->router.forward_from_internet(at, frame.packet);
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
