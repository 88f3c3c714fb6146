#include "syndog/sim/stub_site.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
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
      addressing_(addressing),
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
      ip, host_mac(index), router_.mac(), scheduler_,
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
  if (syn_times.empty()) return;
  if (syn_times.size() > UINT32_MAX) {
    throw std::length_error("StubSite: more than 2^32 SYNs in one flood");
  }
  // A /31 or /32 pool means a fixed spoofed source (e.g. the reflection
  // scenario that frames one specific reachable host).
  const std::int64_t pool_hosts = std::max<std::int64_t>(
      static_cast<std::int64_t>(spoof_pool.size()) - 2, 1);
  Flood flood;
  flood.host_index = index;
  flood.victim = victim;
  flood.victim_port = victim_port;
  flood.syns.reserve(syn_times.size());
  for (std::size_t k = 0; k < syn_times.size(); ++k) {
    const net::Ipv4Address spoofed =
        spoof_pool.size() <= 2
            ? spoof_pool.base()
            : spoof_pool.host(
                  static_cast<std::uint32_t>(rng.uniform_int(1, pool_hosts)));
    const auto sport =
        static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const std::uint32_t seq = rng.next_u32();
    flood.syns.push_back({syn_times[k] + lan_delay_, spoofed, seq,
                          static_cast<std::uint32_t>(k), sport});
  }
  // Stable, so tied SYNs stay in index order, which is stamp order.
  if (!std::ranges::is_sorted(flood.syns, {}, &FloodSyn::at)) {
    std::ranges::stable_sort(flood.syns, {}, &FloodSyn::at);
  }
  flood.first_stamp = scheduler_.reserve(syn_times.size());
  floods_.push_back(std::move(flood));
  // Throws if the first SYN is before now(); the flood then never fires.
  schedule_flood_syn(floods_.size() - 1);
}

void StubSite::schedule_flood_syn(std::size_t f) {
  const Flood& flood = floods_[f];
  const FloodSyn& syn = flood.syns[flood.next];
  scheduler_.schedule_reserved(syn.at, flood.first_stamp + syn.order,
                               [this, f] { fire_flood_syn(f); });
}

void StubSite::fire_flood_syn(std::size_t f) {
  Flood& flood = floods_[f];
  const FloodSyn& syn = flood.syns[flood.next];
  net::TcpPacketSpec spec;
  spec.src_mac = host_mac(flood.host_index);
  spec.dst_mac = router_.mac();
  spec.src_ip = syn.spoofed;
  spec.dst_ip = flood.victim;
  spec.src_port = syn.sport;
  spec.dst_port = flood.victim_port;
  spec.seq = syn.seq;
  if (++flood.next < flood.syns.size()) {
    schedule_flood_syn(f);
  } else {
    std::vector<FloodSyn>().swap(flood.syns);
  }
  // Last: forwarding may launch another flood and move floods_.
  router_.forward_from_intranet(scheduler_.now(), net::make_syn(spec));
}

}  // namespace syndog::sim
