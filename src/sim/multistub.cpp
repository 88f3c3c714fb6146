#include "syndog/sim/multistub.hpp"

#include <stdexcept>
#include <string>

namespace syndog::sim {

namespace {
net::Ipv4Prefix prefix_for(int stub) {
  return net::Ipv4Prefix(
      net::Ipv4Address(10, static_cast<std::uint8_t>(stub + 1), 0, 0), 16);
}
}  // namespace

MultiStubSim::MultiStubSim(MultiStubParams params)
    : params_(params),
      workload_rng_(util::Rng::child(params.seed, 0x3bac4)),
      flood_rng_(util::Rng::child(params.seed, 0x3f100d)) {
  if (params_.stub_count < 1 || params_.stub_count > 200) {
    throw std::invalid_argument("MultiStubSim: stub_count in [1,200]");
  }
  if (params_.hosts_per_stub == 0) {
    throw std::invalid_argument("MultiStubSim: need at least one host");
  }
  cloud_ = std::make_unique<InternetCloud>(
      scheduler_, params_.cloud, util::splitmix64(params_.seed ^ 0x3c1));

  stubs_.resize(static_cast<std::size_t>(params_.stub_count));
  for (int s = 0; s < params_.stub_count; ++s) {
    Stub& stub = stubs_[static_cast<std::size_t>(s)];
    const auto plane = static_cast<std::uint32_t>(s);
    stub.site = std::make_unique<StubSite>(
        scheduler_, prefix_for(s), params_.hosts_per_stub, params_.lan_delay,
        StubAddressing{net::MacAddress::for_host(0xf00000 + plane),
                       plane * 0x10000, 0x70000 + std::uint64_t{plane} * 1000},
        params_.host_params, params_.seed);

    LeafRouter* router = &stub.site->router();
    stub.downlink = std::make_unique<Link>(
        scheduler_, params_.downlink_delay,
        [this, router](const net::Packet& pkt) {
          router->forward_from_internet(scheduler_.now(), pkt);
        });
    cloud_->add_stub_route(
        prefix_for(s), [link = stub.downlink.get()](const net::Packet& pkt) {
          link->send(pkt);
        });
    stub.uplink = std::make_unique<Link>(
        scheduler_, params_.uplink_delay,
        [this](const net::Packet& pkt) { cloud_->receive(pkt); });
    router->set_uplink([link = stub.uplink.get()](const net::Packet& pkt) {
      link->send(pkt);
    });

    for (std::uint32_t i = 1; i <= params_.hosts_per_stub; ++i) {
      (void)stub.site->host(i);
    }
  }
}

void MultiStubSim::check_stub(int stub) const {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("MultiStubSim: stub index " +
                            std::to_string(stub) + " outside [0, " +
                            std::to_string(params_.stub_count - 1) + "]");
  }
}

StubSite& MultiStubSim::site(int stub) {
  check_stub(stub);
  return *stubs_[static_cast<std::size_t>(stub)].site;
}

net::Ipv4Prefix MultiStubSim::stub_prefix(int stub) const {
  check_stub(stub);
  return prefix_for(stub);
}

LeafRouter& MultiStubSim::router(int stub) { return site(stub).router(); }

TcpHost& MultiStubSim::host(int stub, std::uint32_t index) {
  return site(stub).host(index);
}

TcpHost& MultiStubSim::add_internet_host(net::Ipv4Address ip,
                                         TcpHostParams host_params) {
  return cloud_->add_host(ip, host_params, params_.seed);
}

void MultiStubSim::schedule_outbound_background(
    int stub, const std::vector<util::SimTime>& start_times) {
  site(stub).schedule_host_background(start_times, workload_rng_);
}

void MultiStubSim::launch_flood(int stub, std::uint32_t host_index,
                                const std::vector<util::SimTime>& syn_times,
                                net::Ipv4Address victim,
                                std::uint16_t victim_port,
                                net::Ipv4Prefix spoof_pool) {
  site(stub).launch_flood(host_index, syn_times, victim, victim_port,
                          spoof_pool, flood_rng_);
}

}  // namespace syndog::sim
