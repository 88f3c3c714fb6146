#include "syndog/sim/network.hpp"

#include <stdexcept>
#include <utility>

#include "syndog/sim/internet.hpp"

namespace syndog::sim {

StubNetworkSim::StubNetworkSim(StubNetworkParams params)
    : params_(params),
      workload_rng_(util::Rng::child(params.seed, 0xbac4)),
      flood_rng_(util::Rng::child(params.seed, 0xf100d)) {
  if (params_.num_hosts == 0) {
    throw std::invalid_argument("StubNetworkSim: need at least one host");
  }
  site_ = std::make_unique<StubSite>(
      scheduler_, params_.stub_prefix, params_.num_hosts, params_.lan_delay,
      StubAddressing{net::MacAddress::for_host(0xffffff), 0, 0x700},
      params_.host_params, params_.seed);

  // Internet side: router --uplink--> cloud, cloud --downlink--> router.
  downlink_ = std::make_unique<Link>(
      scheduler_, params_.downlink_delay, [this](const net::Packet& pkt) {
        router().forward_from_internet(scheduler_.now(), pkt);
      });
  cloud_ = std::make_unique<InternetCloud>(
      scheduler_, params_.cloud, util::splitmix64(params_.seed ^ 0xc1));
  cloud_->add_stub_route(params_.stub_prefix, [this](const net::Packet& pkt) {
    downlink_->send(pkt);
  });
  uplink_ = std::make_unique<Link>(
      scheduler_, params_.uplink_delay,
      [this](const net::Packet& pkt) { cloud_->receive(pkt); });
  router().set_uplink([this](const net::Packet& pkt) { uplink_->send(pkt); });

  for (std::uint32_t i = 1; i <= params_.num_hosts; ++i) (void)host(i);
}

TcpHost& StubNetworkSim::add_internet_host(net::Ipv4Address ip,
                                           TcpHostParams host_params) {
  return cloud_->add_host(ip, host_params, params_.seed);
}

void StubNetworkSim::make_servers(std::uint16_t port) {
  for (std::uint32_t i = 1; i <= params_.num_hosts; ++i) host(i).listen(port);
}

void StubNetworkSim::schedule_outbound_background(
    const std::vector<util::SimTime>& start_times) {
  site_->schedule_host_background(start_times, workload_rng_);
}

void StubNetworkSim::schedule_inbound_background(
    const std::vector<util::SimTime>& start_times,
    std::uint16_t server_port) {
  for (util::SimTime at : start_times) {
    const auto host_index = static_cast<std::uint32_t>(
        workload_rng_.uniform_int(1, params_.num_hosts));
    const net::Ipv4Address client = draw_generic_server(workload_rng_);
    const auto client_port = static_cast<std::uint16_t>(
        workload_rng_.uniform_int(1024, 65535));
    const std::uint32_t seq = workload_rng_.next_u32();
    scheduler_.schedule_at(at, [this, host_index, client, client_port,
                                server_port, seq] {
      net::TcpPacketSpec spec;
      spec.src_mac = internet_gateway_mac();
      spec.dst_mac = site_->host_mac(host_index);
      spec.src_ip = client;
      spec.dst_ip = params_.stub_prefix.host(host_index);
      spec.src_port = client_port;
      spec.dst_port = server_port;
      spec.seq = seq;
      router().forward_from_internet(scheduler_.now(), net::make_syn(spec));
    });
  }
}

void StubNetworkSim::launch_flood(std::uint32_t host_index,
                                  const std::vector<util::SimTime>& syn_times,
                                  net::Ipv4Address victim,
                                  std::uint16_t victim_port,
                                  net::Ipv4Prefix spoof_pool) {
  site_->launch_flood(host_index, syn_times, victim, victim_port, spoof_pool,
                      flood_rng_);
}

void StubNetworkSim::replay_at_router(util::SimTime at,
                                      const net::Packet& packet) {
  const bool from_intranet = params_.stub_prefix.contains(packet.ip.src) ||
                             !params_.stub_prefix.contains(packet.ip.dst);
  scheduler_.schedule_at(
      at, [this, from_intranet, h = scheduler_.packets().acquire(packet)] {
        if (from_intranet) {
          router().forward_from_intranet(scheduler_.now(), *h);
        } else {
          router().forward_from_internet(scheduler_.now(), *h);
        }
      });
}

}  // namespace syndog::sim
