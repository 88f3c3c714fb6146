// Microbenchmarks for the paper's "low computation overhead" claim (§1):
// per-packet classification and stub-routing cost and per-period CUSUM
// and agent period-close cost, measured with google-benchmark, plus the
// simulator's per-SYN cost of a flood.
//
// The headline numbers: one flag classification is a few nanoseconds and
// one CUSUM update is O(10) ns — i.e. SYN-dog adds no meaningful load to
// a leaf router, and its state is a handful of scalars.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sidecar.hpp"
#include "syndog/classify/segment.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/detect/cusum.hpp"
#include "syndog/ingest/stub_router.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/stub_site.hpp"
#include "syndog/sim/victim_defense.hpp"
#include "syndog/util/rng.hpp"

using namespace syndog;

namespace {

net::Packet sample_syn(util::Rng& rng) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(7);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address{rng.next_u32()};
  spec.dst_ip = net::Ipv4Address{rng.next_u32()};
  spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  spec.dst_port = 80;
  spec.seq = rng.next_u32();
  return net::make_syn(spec);
}

void BM_ClassifyFrameFast(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<net::ByteBuffer> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(net::encode_frame(sample_syn(rng)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify::classify_frame_fast(frames[i++ % frames.size()]));
  }
}
BENCHMARK(BM_ClassifyFrameFast);

void BM_SnifferOnPacket(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<net::Packet> packets;
  for (int i = 0; i < 64; ++i) packets.push_back(sample_syn(rng));
  core::Sniffer sniffer(core::SnifferRole::kOutbound);
  std::size_t i = 0;
  for (auto _ : state) {
    sniffer.on_packet(packets[i++ % packets.size()]);
  }
  benchmark::DoNotOptimize(sniffer.lifetime_count());
}
BENCHMARK(BM_SnifferOnPacket);

/// One frame's stub attribution among `state.range(0)` adjacent /24
/// stubs (4 and 512: the stub counts of perfbench's ingest-minframe and
/// ingest-fleet): one endpoint on a random stub host, the other a random
/// address, in either direction.
void BM_StubRouterRoute(benchmark::State& state) {
  const auto stubs = static_cast<std::uint32_t>(state.range(0));
  std::vector<ingest::StubSpec> specs;
  for (std::uint32_t s = 0; s < stubs; ++s) {
    specs.push_back(
        {net::Ipv4Prefix(net::Ipv4Address{0x0A000000u + (s << 8)}, 24),
         "stub" + std::to_string(s)});
  }
  const ingest::StubRouter router(specs, 0);
  util::Rng rng(6);
  std::vector<std::uint32_t> ends;
  for (int i = 0; i < 1024; ++i) {
    const std::uint32_t host =
        0x0A000000u + (static_cast<std::uint32_t>(rng.uniform_int(
                           0, stubs - 1)) << 8) + (rng.next_u32() & 0xffu);
    const std::uint32_t remote = rng.next_u32();
    const bool outbound = rng.bernoulli(0.5);
    ends.push_back(outbound ? host : remote);
    ends.push_back(outbound ? remote : host);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(ends[i], ends[i + 1]));
    i += 2;
    if (i == ends.size()) i = 0;
  }
}
BENCHMARK(BM_StubRouterRoute)->Arg(4)->Arg(512);

void BM_CusumUpdate(benchmark::State& state) {
  detect::NonParametricCusum cusum(
      detect::NonParametricCusumParams{0.35, 1.05});
  util::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 1024; ++i) xs.push_back(rng.uniform(-0.1, 0.2));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cusum.update(xs[i++ % xs.size()]));
  }
}
BENCHMARK(BM_CusumUpdate);

void BM_SynDogObservePeriod(benchmark::State& state) {
  core::SynDog dog(core::SynDogParams::paper_defaults());
  std::int64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dog.observe_period(2200 + (n & 0xff), 2100 + (n & 0x7f)));
    ++n;
  }
}
BENCHMARK(BM_SynDogObservePeriod);

/// One period close on a stub agent (core::SynDogAgent::close_period):
/// the health path, the CUSUM update and the history append, which the
/// sharded ingest merge runs once per stub and period. Quiet counts (SYN
/// and SYN/ACK near 40, so no period alarms), and a fresh agent on an
/// unrun scheduler every 360 periods (ingest-fleet's period count), so
/// the history's growth is part of the figure; building it is not.
void BM_AgentClosePeriod(benchmark::State& state) {
  constexpr std::int64_t kPeriods = 360;
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  const std::int64_t t0_ns = params.observation_period.ns();
  const net::Ipv4Prefix stub(net::Ipv4Address{0x0A000000u}, 24);
  std::unique_ptr<sim::Scheduler> clock;
  std::unique_ptr<core::SynDogAgent> agent;
  std::int64_t p = kPeriods;
  for (auto _ : state) {
    if (p == kPeriods) {
      state.PauseTiming();
      agent.reset();
      clock = std::make_unique<sim::Scheduler>();
      agent = std::make_unique<core::SynDogAgent>(stub, *clock, params);
      p = 0;
      state.ResumeTiming();
    }
    agent->close_period(util::SimTime::nanoseconds((p + 1) * t0_ns),
                        40 + (p & 3), 40 + ((p >> 2) & 3), 0);
    ++p;
  }
  benchmark::DoNotOptimize(agent->ever_alarmed());
}
BENCHMARK(BM_AgentClosePeriod);

/// One flood's life on a bare stub site: sim::StubSite::launch_flood
/// (the per-SYN draws into the flood's array, one pending event), then
/// the scheduler drains it through the router to a no-op uplink, one
/// event per SYN. per_syn (seconds per SYN) covers both; the scheduler
/// and site are built and torn down outside the timing.
void BM_FloodLaunchAndDrain(benchmark::State& state) {
  const auto syns = static_cast<std::size_t>(state.range(0));
  std::vector<util::SimTime> times(syns);
  for (std::size_t k = 0; k < syns; ++k) {
    times[k] = util::SimTime::microseconds(100 * static_cast<std::int64_t>(k));
  }
  const net::Ipv4Prefix stub(net::Ipv4Address{0x0A000000u}, 24);
  const net::Ipv4Prefix spoof_pool(net::Ipv4Address{0xF0000000u}, 8);
  const net::Ipv4Address victim{198, 51, 100, 10};
  util::Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    auto sched = std::make_unique<sim::Scheduler>();
    auto site = std::make_unique<sim::StubSite>(
        *sched, stub, 4, util::SimTime::microseconds(50),
        sim::StubAddressing{net::MacAddress::for_host(0xffffff), 0, 0},
        sim::TcpHostParams{}, 1);
    site->router().set_uplink([](const net::Packet&) {});
    state.ResumeTiming();
    site->launch_flood(2, times, victim, 80, spoof_pool, rng);
    benchmark::DoNotOptimize(sched->run_all());
    state.PauseTiming();
    site.reset();
    sched.reset();
    state.ResumeTiming();
  }
  state.counters["per_syn"] = benchmark::Counter(
      static_cast<double>(syns),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_FloodLaunchAndDrain)->Arg(1000)->Arg(100000);

/// Contrast: the per-SYN cost of the stateful victim-side alternatives.
void BM_SynCookieMakeVerify(benchmark::State& state) {
  sim::SynCookieCodec codec(0xfeedface);
  util::Rng rng(4);
  std::uint64_t counter = 17;
  for (auto _ : state) {
    sim::ConnKey key{net::Ipv4Address{rng.next_u32()},
                     static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
                     80};
    const std::uint32_t isn = rng.next_u32();
    const std::uint32_t cookie = codec.make(key, isn, counter);
    benchmark::DoNotOptimize(codec.verify(key, isn, cookie, counter));
  }
}
BENCHMARK(BM_SynCookieMakeVerify);

void BM_SynCacheAdmit(benchmark::State& state) {
  sim::SynCache cache(1024);
  util::Rng rng(5);
  for (auto _ : state) {
    sim::ConnKey key{net::Ipv4Address{rng.next_u32()},
                     static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
                     80};
    benchmark::DoNotOptimize(cache.admit(key, util::SimTime::zero()));
  }
}
BENCHMARK(BM_SynCacheAdmit);

/// Measures the per-frame classification hot path through the
/// obs::WallClock seam into a sidecar-visible latency histogram: each
/// observation is one 64-frame batch, so the per-frame cost is
/// sum / (count * 64) with the two clock reads amortized away.
void measure_classify_histogram(bench::Sidecar& side) {
  constexpr int kBatch = 64;
  constexpr int kBatches = 20000;
  obs::WallClock clock;
  obs::Histogram& hist = side.registry().histogram(
      "classify.frame_batch64_ns", obs::latency_buckets_ns());
  util::Rng rng(1);
  std::vector<net::ByteBuffer> frames;
  for (int i = 0; i < kBatch; ++i) {
    frames.push_back(net::encode_frame(sample_syn(rng)));
  }
  for (int b = 0; b < kBatches; ++b) {
    obs::ScopedTimer timer(clock, hist);
    for (const net::ByteBuffer& frame : frames) {
      benchmark::DoNotOptimize(classify::classify_frame_fast(frame));
    }
  }
  side.scalar("classify_frame_mean_ns",
              hist.sum() / (static_cast<double>(hist.count()) * kBatch));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sidecar& side = bench::open_sidecar("micro_overhead");
  side.text("title",
            "Microbenchmarks -- per-packet / per-period overhead (Sec. 1)");
  measure_classify_histogram(side);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
