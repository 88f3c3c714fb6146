#include "syndog/sim/stub_site.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "syndog/sim/internet.hpp"

namespace syndog::sim {

StubSite::StubSite(Scheduler& scheduler, net::Ipv4Prefix prefix,
                   std::uint32_t host_count, util::SimTime lan_delay,
                   StubAddressing addressing, TcpHostParams host_params,
                   std::uint64_t seed)
    : scheduler_(scheduler),
      router_(prefix, addressing.router_mac),
      host_count_(host_count),
      lan_delay_(lan_delay),
      addressing_(std::move(addressing)),
      host_params_(host_params),
      seed_(seed) {}

void StubSite::check_index(std::uint32_t index) const {
  if (index == 0 || index > host_count_) {
    throw std::out_of_range(
        "stub host index " + std::to_string(index) + " outside [1, " +
        std::to_string(host_count_) +
        "] (host indices are 1-based; offset 0 is the prefix base)");
  }
}

TcpHost& StubSite::host(std::uint32_t index) {
  check_index(index);
  if (hosts_.empty()) hosts_.resize(host_count_);
  auto& slot = hosts_[index - 1];
  if (slot) return *slot;
  const net::Ipv4Address ip = prefix().host(index);
  slot = std::make_unique<TcpHost>(
      addressing_.host_name + std::to_string(index), ip, host_mac(index),
      router_.mac(), scheduler_,
      [this](const net::Packet& pkt) {
        scheduler_.schedule_after(
            lan_delay_, [this, h = scheduler_.packets().acquire(pkt)] {
              router_.forward_from_intranet(scheduler_.now(), *h);
            });
      },
      host_params_,
      util::splitmix64(seed_ ^ (addressing_.host_seed_base + index)));
  TcpHost* raw = slot.get();
  router_.attach_host(ip, [this, raw](const net::Packet& pkt) {
    scheduler_.schedule_after(
        lan_delay_,
        [raw, h = scheduler_.packets().acquire(pkt)] { raw->receive(*h); });
  });
  return *raw;
}

void StubSite::deliver_from_internet(util::SimTime at,
                                     const net::Packet& packet) {
  scheduler_.schedule_at(at, [this, h = scheduler_.packets().acquire(packet)] {
    router_.forward_from_internet(scheduler_.now(), *h);
  });
}

void StubSite::schedule_host_background(
    const std::vector<util::SimTime>& starts, util::Rng& rng) {
  for (const util::SimTime at : starts) {
    const auto index =
        static_cast<std::uint32_t>(rng.uniform_int(1, host_count_));
    const net::Ipv4Address dst = draw_generic_server(rng);
    TcpHost* h = &host(index);
    scheduler_.schedule_at(at, [h, dst] { h->connect(dst, 80); });
  }
}

void StubSite::launch_flood(std::uint32_t index,
                            const std::vector<util::SimTime>& syn_times,
                            net::Ipv4Address victim,
                            std::uint16_t victim_port,
                            net::Ipv4Prefix spoof_pool, util::Rng& rng) {
  check_index(index);
  // A /31 or /32 pool means a fixed spoofed source (e.g. the reflection
  // scenario that frames one specific reachable host).
  const std::int64_t pool_hosts = std::max<std::int64_t>(
      static_cast<std::int64_t>(spoof_pool.size()) - 2, 1);
  for (const util::SimTime at : syn_times) {
    const net::Ipv4Address spoofed =
        spoof_pool.size() <= 2
            ? spoof_pool.base()
            : spoof_pool.host(
                  static_cast<std::uint32_t>(rng.uniform_int(1, pool_hosts)));
    const auto sport =
        static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const std::uint32_t seq = rng.next_u32();
    scheduler_.schedule_at(
        at + lan_delay_,
        [this, index, spoofed, victim, victim_port, sport, seq] {
          net::TcpPacketSpec spec;
          spec.src_mac = host_mac(index);
          spec.dst_mac = router_.mac();
          spec.src_ip = spoofed;
          spec.dst_ip = victim;
          spec.src_port = sport;
          spec.dst_port = victim_port;
          spec.seq = seq;
          router_.forward_from_intranet(scheduler_.now(),
                                        net::make_syn(spec));
        });
  }
}

}  // namespace syndog::sim
