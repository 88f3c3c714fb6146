// Raw discrete-event scheduler throughput.
//
// The paper's operational pitch is "low computation overhead" at the leaf
// router, and every headline table rides on multi-million-event DES runs —
// so the event plumbing itself is a measured artifact. Two phases:
//
//  * event churn: a ring of self-rescheduling callbacks plus a
//    schedule-then-cancel decoy per step, isolating the scheduler's
//    schedule/cancel/heap paths with no packet work at all;
//  * packet ping: packets circulating through a sim::Link, so every event
//    carries a pooled packet payload end to end.
//
// Scalars: events_per_sec and sim_seconds_per_wall_sec (churn phase),
// packets_per_sec (ping phase). Wall time is read through obs::WallClock —
// the tree's one sanctioned clock seam — and feeds only these scalars,
// never the simulation itself, which stays deterministic from seeds.
#include <cstdio>

#include "common/experiment.hpp"
#include "common/sidecar.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/sim/link.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/time.hpp"

using namespace syndog;
using util::SimTime;

namespace {

/// Self-sustaining churn: reschedules itself 1 us out and
/// schedules-then-cancels a decoy, so every executed event exercises the
/// schedule, eager heap-removal, and pop paths.
struct Churn {
  sim::Scheduler* sched;
  void operator()() const {
    const sim::EventId decoy =
        sched->schedule_after(SimTime::microseconds(2), [] {});
    sched->cancel(decoy);
    sched->schedule_after(SimTime::microseconds(1), Churn{sched});
  }
};

double run_churn_phase(const obs::WallClock& clock) {
  constexpr std::uint64_t kRingSize = 64;
  constexpr std::uint64_t kWarmupEvents = 200'000;
  constexpr std::uint64_t kMeasuredEvents = 4'000'000;

  sim::Scheduler sched;
  for (std::uint64_t i = 0; i < kRingSize; ++i) {
    sched.schedule_after(SimTime::microseconds(static_cast<std::int64_t>(i) + 1),
                         Churn{&sched});
  }
  sched.run_all(kWarmupEvents);  // reach the steady-state footprint

  const SimTime sim_start = sched.now();
  const std::int64_t wall_start = clock.now_ns();
  sched.run_all(kMeasuredEvents);
  const double wall_s =
      static_cast<double>(clock.now_ns() - wall_start) / 1e9;
  const double sim_s = (sched.now() - sim_start).to_seconds();

  const double events_per_sec =
      static_cast<double>(kMeasuredEvents) / wall_s;
  const double sim_per_wall = sim_s / wall_s;
  std::printf("event churn : %10.3e events/s   (%.2f s wall for %.1fM "
              "events, %.1f sim-s/wall-s)\n",
              events_per_sec, wall_s,
              static_cast<double>(kMeasuredEvents) / 1e6, sim_per_wall);
  bench::sidecar()->scalar("events_per_sec", events_per_sec);
  bench::sidecar()->scalar("sim_seconds_per_wall_sec", sim_per_wall);
  return events_per_sec;
}

struct Pinger {
  sim::Link* link = nullptr;
  std::uint64_t deliveries = 0;
  void operator()(const net::Packet& pkt) {
    ++deliveries;
    link->send(pkt);
  }
};

double run_ping_phase(const obs::WallClock& clock) {
  constexpr std::uint64_t kInFlight = 32;
  constexpr std::uint64_t kWarmupEvents = 100'000;
  constexpr std::uint64_t kMeasuredEvents = 1'000'000;

  sim::Scheduler sched;
  Pinger pinger;
  sim::Link link(sched, SimTime::milliseconds(1),
                 [&pinger](const net::Packet& pkt) { pinger(pkt); });
  pinger.link = &link;

  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  spec.src_port = 1024;
  spec.dst_port = 80;
  const net::Packet pkt = net::make_syn(spec);
  for (std::uint64_t i = 0; i < kInFlight; ++i) link.send(pkt);

  sched.run_all(kWarmupEvents);

  const std::uint64_t delivered_before = pinger.deliveries;
  const std::int64_t wall_start = clock.now_ns();
  sched.run_all(kMeasuredEvents);
  const double wall_s =
      static_cast<double>(clock.now_ns() - wall_start) / 1e9;
  const double packets =
      static_cast<double>(pinger.deliveries - delivered_before);

  const double packets_per_sec = packets / wall_s;
  std::printf("packet ping : %10.3e packets/s  (%.2f s wall for %.1fM "
              "pooled deliveries over a 1 ms link)\n",
              packets_per_sec, wall_s, packets / 1e6);
  bench::sidecar()->scalar("packets_per_sec", packets_per_sec);
  return packets_per_sec;
}

}  // namespace

int main() {
  bench::print_header(
      "sim_throughput",
      "DES hot-path throughput (allocation-free scheduler)",
      "perf trajectory for the paper's low-overhead claim; see "
      "docs/PERFORMANCE.md");

  const obs::WallClock clock;
  run_churn_phase(clock);
  run_ping_phase(clock);

  std::printf(
      "\nexpected: events/s in the 1e7 order on commodity hardware, ~2x\n"
      "the pre-arena scheduler on this same workload (~4.5e6); absolute\n"
      "numbers vary by machine -- track the trajectory, not the point\n"
      "value. See docs/PERFORMANCE.md.\n");
  return 0;
}
