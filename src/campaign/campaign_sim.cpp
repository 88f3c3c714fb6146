#include "syndog/campaign/campaign_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace syndog::campaign {

namespace {

// Stub s owns the /20 based at 10.0.0.0 + (s << 12): 4094 addressable
// hosts per stub, 16k stubs before the space walks past 14/8 — well
// clear of the victim (198.51.100.10), the generic-server space
// [0x80000000, 0xA0000000) the background dials, and the 240/8 spoof
// pool. MultiStubSim's 10.(s+1).0.0/16 scheme caps out at ~200 stubs.
constexpr std::uint32_t kStubBase = 0x0A000000u;
constexpr int kPrefixLength = 20;
constexpr std::uint32_t kMaxHostsPerStub = (1u << (32 - kPrefixLength)) - 2;

// MAC index planes. MultiStubSim's host plane (s * 0x10000 + i) collides
// with its router plane (0xf00000 + s) at stub 240, which never bites at
// <= 200 stubs; at 16k stubs the planes must be disjoint by construction.
constexpr std::uint32_t kRouterMacPlane = 0xC0000000u;
constexpr std::uint32_t kHostMacPlane = 0x40000000u;

net::Ipv4Prefix prefix_for(int stub) {
  return net::Ipv4Prefix(
      net::Ipv4Address(kStubBase +
                       (static_cast<std::uint32_t>(stub) << 12)),
      kPrefixLength);
}

}  // namespace

void CampaignParams::validate() const {
  if (stub_count < 1 || stub_count > kMaxStubs) {
    throw std::invalid_argument("CampaignSim: stub_count in [1, 16384]");
  }
  if (hosts_per_stub == 0 || hosts_per_stub > kMaxHostsPerStub) {
    throw std::invalid_argument("CampaignSim: hosts_per_stub in [1, 4094]");
  }
  if (cells < 0) {
    throw std::invalid_argument("CampaignSim: cells must be >= 0");
  }
  if (lan_delay < util::SimTime::zero()) {
    throw std::invalid_argument("CampaignSim: lan_delay must be >= 0");
  }
  if (uplink_delay <= util::SimTime::zero() ||
      downlink_delay <= util::SimTime::zero()) {
    // A zero cross-shard latency means zero lookahead: no conservative
    // window can make concurrent cells causally safe.
    throw std::invalid_argument(
        "CampaignSim: uplink/downlink delays must be > 0 (they are the "
        "lookahead)");
  }
  const util::SimTime lookahead = std::min(uplink_delay, downlink_delay);
  if (window < util::SimTime::zero() || window > lookahead) {
    throw std::invalid_argument(
        "CampaignSim: window must lie in (0, min(uplink, downlink)] "
        "(0 = auto)");
  }
  responder.validate();
  const std::uint32_t v = victim_ip.value();
  const std::uint32_t stub_space_end =
      kStubBase + (static_cast<std::uint32_t>(stub_count) << 12);
  if (v >= kStubBase && v < stub_space_end) {
    throw std::invalid_argument("CampaignSim: victim inside a stub prefix");
  }
  if (unreachable_pool.contains(victim_ip)) {
    throw std::invalid_argument(
        "CampaignSim: victim inside the unreachable pool");
  }
  agent_params.validate();
}

CampaignSim::StubNet::StubNet(const CampaignParams& params, int stub,
                              sim::Scheduler& sched)
    : site(sched, prefix_for(stub), params.hosts_per_stub, params.lan_delay,
           sim::StubAddressing{
               net::MacAddress::for_host(kRouterMacPlane +
                                         static_cast<std::uint32_t>(stub)),
               kHostMacPlane + (static_cast<std::uint32_t>(stub) << 12),
               0x70000ull + static_cast<std::uint64_t>(stub) * 0x10000ull},
           params.host_params, params.seed),
      workload_rng(util::Rng::child(params.seed ^ 0xBA22u,
                                    static_cast<std::uint64_t>(stub))),
      flood_rng(util::Rng::child(params.seed ^ 0xF100Du,
                                 static_cast<std::uint64_t>(stub))),
      responder_rng(util::Rng::child(params.seed ^ 0xC10ADu,
                                     static_cast<std::uint64_t>(stub))) {}

CampaignSim::CampaignSim(CampaignParams params) : params_(params) {
  params_.validate();
  const util::SimTime lookahead =
      std::min(params_.uplink_delay, params_.downlink_delay);
  window_ = params_.window == util::SimTime::zero() ? lookahead
                                                    : params_.window;

  const int cell_total =
      params_.cells == 0 ? std::min(params_.stub_count, 64)
                         : std::min(params_.cells, params_.stub_count);
  cells_.reserve(static_cast<std::size_t>(cell_total));
  for (int c = 0; c < cell_total; ++c) {
    cells_.push_back(std::make_unique<Cell>());
  }

  stubs_.reserve(static_cast<std::size_t>(params_.stub_count));
  for (int s = 0; s < params_.stub_count; ++s) {
    stubs_.push_back(std::make_unique<StubNet>(params_, s, sched_of(s)));
    StubNet& sn = *stubs_.back();
    sn.site.router().set_uplink(
        [this, s](const net::Packet& pkt) { on_uplink(s, pkt); });
    sn.agent = std::make_unique<core::SynDogAgent>(
        sn.site.router(), sched_of(s), params_.agent_params,
        [this, s](const core::AlarmEvent& event) {
          stubs_[static_cast<std::size_t>(s)]->alarms.push_back({s, event});
        },
        core::AgentMode::kFirstMile);
  }

  victim_cell_ = std::make_unique<Cell>();
  victim_ = sim::make_internet_host(
      params_.victim_ip, 0, victim_cell_->sched,
      [this](const net::Packet& pkt) { on_victim_send(pkt); },
      params_.victim_params, params_.seed);
  victim_->listen(params_.victim_port);
}

int CampaignSim::cell_of(int stub) const {
  return stub % static_cast<int>(cells_.size());
}

sim::Scheduler& CampaignSim::sched_of(int stub) {
  return cells_[static_cast<std::size_t>(cell_of(stub))]->sched;
}

CampaignSim::StubNet& CampaignSim::stub_at(int stub) {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("CampaignSim: stub index " +
                            std::to_string(stub) + " outside [0, " +
                            std::to_string(params_.stub_count - 1) + "]");
  }
  return *stubs_[static_cast<std::size_t>(stub)];
}

const CampaignSim::StubNet& CampaignSim::stub_at(int stub) const {
  return const_cast<CampaignSim*>(this)->stub_at(stub);
}

int CampaignSim::stub_of(net::Ipv4Address ip) const {
  const std::uint32_t v = ip.value();
  if (v < kStubBase) return -1;
  const std::uint32_t offset = (v - kStubBase) >> 12;
  if (offset >= static_cast<std::uint32_t>(params_.stub_count)) return -1;
  return static_cast<int>(offset);
}

net::Ipv4Prefix CampaignSim::stub_prefix(int stub) const {
  return stub_at(stub).site.prefix();
}

sim::LeafRouter& CampaignSim::router(int stub) {
  return stub_at(stub).site.router();
}

core::SynDogAgent& CampaignSim::agent(int stub) {
  return *stub_at(stub).agent;
}

const core::SynDogAgent& CampaignSim::agent(int stub) const {
  return *stub_at(stub).agent;
}

sim::TcpHost& CampaignSim::host(int stub, std::uint32_t index) {
  return stub_at(stub).site.host(index);
}

// ---- Cross-shard classification -------------------------------------

void CampaignSim::on_uplink(int stub, const net::Packet& packet) {
  StubNet& sn = *stubs_[static_cast<std::size_t>(stub)];
  Cell& cell = *cells_[static_cast<std::size_t>(cell_of(stub))];
  const net::Ipv4Address dst = packet.ip.dst;
  if (dst == params_.victim_ip) {
    cell.outbox.push_back({cell.sched.now() + params_.uplink_delay,
                           static_cast<std::uint32_t>(stub),
                           sn.mailbox_seq++, packet});
    return;
  }
  if (params_.unreachable_pool.contains(dst)) {
    ++sn.responder.dropped_unreachable;
    return;
  }
  if (stub_of(dst) >= 0) {
    // Stub-to-stub host traffic is outside the campaign model (the only
    // shared Internet-side endpoint is the victim); absorb it rather
    // than grow an all-pairs mailbox mesh.
    ++sn.responder.absorbed_elsewhere;
    return;
  }
  if (const auto reply = sim::answer_segment(
          packet, params_.responder, sn.responder_rng, sn.responder)) {
    sn.site.deliver_from_internet(cell.sched.now() + params_.uplink_delay +
                                      reply->rtt + params_.downlink_delay,
                                  reply->packet);
  }
}

void CampaignSim::on_victim_send(const net::Packet& packet) {
  const net::Ipv4Address dst = packet.ip.dst;
  const int stub = stub_of(dst);
  if (stub >= 0) {
    victim_cell_->outbox.push_back(
        {victim_cell_->sched.now() + params_.downlink_delay,
         static_cast<std::uint32_t>(stub), victim_seq_++, packet});
    return;
  }
  if (params_.unreachable_pool.contains(dst)) {
    // Replies to spoofed sources die in the core, exactly like the
    // oracle cloud's unreachable pool — never transiting any stub's
    // monitored inbound interface.
    ++cross_.dropped_unreachable;
    return;
  }
  ++cross_.absorbed_elsewhere;
}

// ---- Workload --------------------------------------------------------

void CampaignSim::connect_background(int stub, std::uint32_t host_index,
                                     util::SimTime at, net::Ipv4Address dst,
                                     std::uint16_t port) {
  sim::TcpHost* h = &host(stub, host_index);
  sched_of(stub).schedule_at(at, [h, dst, port] { h->connect(dst, port); });
}

void CampaignSim::start_wire_background(int stub, double rate_per_sec,
                                        util::SimTime start,
                                        util::SimTime end) {
  StubNet& sn = stub_at(stub);
  if (!(rate_per_sec > 0.0)) {
    throw std::invalid_argument(
        "CampaignSim: wire background rate must be > 0");
  }
  const double gap = sn.workload_rng.exponential_mean(1.0 / rate_per_sec);
  const util::SimTime first = start + util::SimTime::from_seconds(gap);
  if (first >= end) return;
  sched_of(stub).schedule_at(first, [this, stub, rate_per_sec, end] {
    wire_background_step(stub, rate_per_sec, end);
  });
}

void CampaignSim::wire_background_step(int stub, double rate_per_sec,
                                       util::SimTime end) {
  StubNet& sn = *stubs_[static_cast<std::size_t>(stub)];
  Cell& cell = *cells_[static_cast<std::size_t>(cell_of(stub))];
  // Craft this connection's SYN directly onto the router's LAN side: the
  // sniffers see the same wire a TcpHost would produce, but no host
  // state is materialized (2 events per connection, so a million-host
  // address space costs nothing until a host is actually needed).
  const auto host_index = static_cast<std::uint32_t>(
      sn.workload_rng.uniform_int(1, params_.hosts_per_stub));
  net::TcpPacketSpec spec;
  spec.src_mac = sn.site.host_mac(host_index);
  spec.dst_mac = sn.site.router().mac();
  spec.src_ip = sn.site.prefix().host(host_index);
  spec.dst_ip = sim::draw_generic_server(sn.workload_rng);
  spec.src_port = static_cast<std::uint16_t>(
      sn.workload_rng.uniform_int(1024, 65535));
  spec.dst_port = 80;
  spec.seq = sn.workload_rng.next_u32();
  sn.site.router().forward_from_intranet(cell.sched.now(),
                                         net::make_syn(spec));

  const double gap = sn.workload_rng.exponential_mean(1.0 / rate_per_sec);
  const util::SimTime next = cell.sched.now() + util::SimTime::from_seconds(gap);
  if (next < end) {
    cell.sched.schedule_at(next, [this, stub, rate_per_sec, end] {
      wire_background_step(stub, rate_per_sec, end);
    });
  }
}

void CampaignSim::launch_flood(int stub, std::uint32_t host_index,
                               const std::vector<util::SimTime>& syn_times,
                               net::Ipv4Prefix spoof_pool) {
  StubNet& sn = stub_at(stub);
  sn.site.launch_flood(host_index, syn_times, params_.victim_ip,
                       params_.victim_port, spoof_pool, sn.flood_rng);
}

// ---- Windows and barriers --------------------------------------------

int CampaignSim::cell_count() const {
  return static_cast<int>(cells_.size()) + 1;
}

std::size_t CampaignSim::run_cell_until(int cell, util::SimTime until) {
  if (cell < 0 || cell >= cell_count()) {
    throw std::out_of_range("CampaignSim: cell index");
  }
  sim::Scheduler& sched = cell == static_cast<int>(cells_.size())
                              ? victim_cell_->sched
                              : cells_[static_cast<std::size_t>(cell)]->sched;
  return sched.run_until(until);
}

void CampaignSim::note_injection(util::SimTime arrive_at,
                                 util::SimTime barrier) {
  const util::SimTime margin = arrive_at - barrier;
  if (margin < min_injection_margin_) min_injection_margin_ = margin;
  if (arrive_at < barrier) {
    throw std::logic_error(
        "CampaignSim: lookahead violation — mailbox record arriving at " +
        arrive_at.to_string() + " crossed a barrier at " +
        barrier.to_string());
  }
}

void CampaignSim::inject_into_victim(const MailboxRecord& record) {
  ++cross_.to_victim;
  sim::Scheduler& sched = victim_cell_->sched;
  sim::TcpHost* victim = victim_.get();
  sched.schedule_at(record.arrive_at,
                    [victim, h = sched.packets().acquire(record.packet)] {
                      victim->receive(*h);
                    });
}

void CampaignSim::inject_into_stub(const MailboxRecord& record) {
  ++cross_.to_stubs;
  stubs_[record.stub]->site.deliver_from_internet(record.arrive_at,
                                                  record.packet);
}

void CampaignSim::exchange_and_advance(util::SimTime barrier) {
  ++cross_.barriers;
  // Stub -> victim: collect every cell's outbox (ascending cell order —
  // though the canonical sort makes the collection order irrelevant).
  merge_scratch_.clear();
  for (auto& cell : cells_) {
    for (auto& record : cell->outbox) {
      merge_scratch_.push_back(std::move(record));
    }
    cell->outbox.clear();
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(), canonical_before);
  for (const auto& record : merge_scratch_) {
    note_injection(record.arrive_at, barrier);
    inject_into_victim(record);
  }
  // Victim -> stubs.
  merge_scratch_.clear();
  for (auto& record : victim_cell_->outbox) {
    merge_scratch_.push_back(std::move(record));
  }
  victim_cell_->outbox.clear();
  std::sort(merge_scratch_.begin(), merge_scratch_.end(), canonical_before);
  for (const auto& record : merge_scratch_) {
    note_injection(record.arrive_at, barrier);
    inject_into_stub(record);
  }
  merge_scratch_.clear();
  now_ = barrier;
}

void CampaignSim::run_until(util::SimTime end) {
  while (now_ < end) {
    const util::SimTime barrier = std::min(now_ + window_, end);
    const int cells = cell_count();
    for (int c = 0; c < cells; ++c) {
      run_cell_until(c, barrier);
    }
    exchange_and_advance(barrier);
  }
}

// ---- Results ---------------------------------------------------------

sim::ResponderStats CampaignSim::responder_stats() const {
  sim::ResponderStats total;
  for (const auto& sn : stubs_) {
    total.syns_seen += sn->responder.syns_seen;
    total.syn_acks_generated += sn->responder.syn_acks_generated;
    total.unanswered += sn->responder.unanswered;
    total.dropped_unreachable += sn->responder.dropped_unreachable;
    total.absorbed_elsewhere += sn->responder.absorbed_elsewhere;
  }
  return total;
}

sim::RouterStats CampaignSim::router_stats() const {
  sim::RouterStats total;
  for (const auto& sn : stubs_) {
    const sim::RouterStats& r = sn->site.router().stats();
    total.forwarded_outbound += r.forwarded_outbound;
    total.forwarded_inbound += r.forwarded_inbound;
    total.dropped_no_route += r.dropped_no_route;
    total.dropped_ingress_filter += r.dropped_ingress_filter;
    total.dropped_policer += r.dropped_policer;
    total.tap_suppressed += r.tap_suppressed;
    total.inbound_tap_bypassed += r.inbound_tap_bypassed;
  }
  return total;
}

std::vector<AlarmRecord> CampaignSim::merged_alarms() const {
  std::vector<AlarmRecord> merged;
  for (const auto& sn : stubs_) {
    merged.insert(merged.end(), sn->alarms.begin(), sn->alarms.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const AlarmRecord& a, const AlarmRecord& b) {
              if (a.event.at != b.event.at) return a.event.at < b.event.at;
              return a.stub < b.stub;
            });
  return merged;
}

int CampaignSim::stubs_alarmed() const {
  int count = 0;
  for (const auto& sn : stubs_) {
    if (sn->agent->ever_alarmed()) ++count;
  }
  return count;
}

std::uint64_t CampaignSim::events_executed() const {
  std::uint64_t total = victim_cell_->sched.executed();
  for (const auto& cell : cells_) {
    total += cell->sched.executed();
  }
  return total;
}

std::string CampaignSim::state_digest() const {
  std::string out;
  out.reserve(256 + static_cast<std::size_t>(params_.stub_count) * 512);
  char buf[512];
  auto emit = [&out, &buf](const char* fmt, auto... args) {
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    out.append(buf, static_cast<std::size_t>(std::max(n, 0)));
  };

  // Deliberately excludes the cell count and worker count: the digest
  // renders only decomposition-invariant state.
  emit("campaign stubs=%d hosts_per_stub=%u window_ns=%lld seed=%llu\n",
       params_.stub_count, params_.hosts_per_stub,
       static_cast<long long>(window_.ns()),
       static_cast<unsigned long long>(params_.seed));
  emit("run now_ns=%lld events=%llu barriers=%llu min_margin_ns=%lld\n",
       static_cast<long long>(now_.ns()),
       static_cast<unsigned long long>(events_executed()),
       static_cast<unsigned long long>(cross_.barriers),
       static_cast<long long>(min_injection_margin_.ns()));
  emit("cross to_victim=%llu to_stubs=%llu unreachable=%llu absorbed=%llu\n",
       static_cast<unsigned long long>(cross_.to_victim),
       static_cast<unsigned long long>(cross_.to_stubs),
       static_cast<unsigned long long>(cross_.dropped_unreachable),
       static_cast<unsigned long long>(cross_.absorbed_elsewhere));
  const sim::ResponderStats resp = responder_stats();
  emit("responder syns=%llu syn_acks=%llu unanswered=%llu unreachable=%llu "
       "absorbed=%llu\n",
       static_cast<unsigned long long>(resp.syns_seen),
       static_cast<unsigned long long>(resp.syn_acks_generated),
       static_cast<unsigned long long>(resp.unanswered),
       static_cast<unsigned long long>(resp.dropped_unreachable),
       static_cast<unsigned long long>(resp.absorbed_elsewhere));
  const sim::RouterStats routers = router_stats();
  emit("routers out=%llu in=%llu no_route=%llu\n",
       static_cast<unsigned long long>(routers.forwarded_outbound),
       static_cast<unsigned long long>(routers.forwarded_inbound),
       static_cast<unsigned long long>(routers.dropped_no_route));
  const sim::TcpHostStats& v = victim_->stats();
  emit("victim syns=%llu syn_acks=%llu backlog_drops=%llu established=%llu "
       "half_open=%zu timeouts=%llu rsts=%llu\n",
       static_cast<unsigned long long>(v.syns_received),
       static_cast<unsigned long long>(v.syn_acks_sent),
       static_cast<unsigned long long>(v.backlog_drops),
       static_cast<unsigned long long>(v.established_as_server),
       victim_->half_open_count(),
       static_cast<unsigned long long>(v.half_open_timeouts),
       static_cast<unsigned long long>(v.rsts_sent));

  for (int s = 0; s < params_.stub_count; ++s) {
    const StubNet& sn = *stubs_[static_cast<std::size_t>(s)];
    emit("stub %d first_alarm=%lld alarms=%zu periods=%zu\n", s,
         static_cast<long long>(sn.agent->first_alarm_period()),
         sn.alarms.size(), sn.agent->history().size());
    for (const core::PeriodReport& r : sn.agent->history()) {
      emit("  p=%lld syn=%lld syn_ack=%lld k=%.17g d=%.17g x=%.17g y=%.17g "
           "alarm=%d clamp=%d\n",
           static_cast<long long>(r.period_index),
           static_cast<long long>(r.syn_count),
           static_cast<long long>(r.syn_ack_count), r.k_estimate, r.delta,
           r.x, r.y, r.alarm ? 1 : 0, r.x_clamped ? 1 : 0);
    }
    for (const AlarmRecord& a : sn.alarms) {
      emit("  alarm at_ns=%lld period=%lld suspects=%zu top=%s\n",
           static_cast<long long>(a.event.at.ns()),
           static_cast<long long>(a.event.report.period_index),
           a.event.suspects.size(),
           a.event.suspects.empty()
               ? "-"
               : a.event.suspects.front().mac.to_string().c_str());
    }
  }
  return out;
}

}  // namespace syndog::campaign
