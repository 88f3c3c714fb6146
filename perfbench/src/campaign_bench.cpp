// Campaign workload: campaign-wire.
//
// Each pass builds a campaign::CampaignSim from the seed's workload calls
// and runs it to the end, either inline (run_until(end)) or on two
// workers (run_until(end, 2), which drives campaign::CampaignRunner).
// Every pass is gated: the state digest must equal the first inline
// run's, and exactly the flooding stubs must alarm.
//
// The traced run drives the same window protocol run_until(end) uses —
// run_cell_until(cell, barrier) for each cell, then
// exchange_and_advance(barrier) — with one span per call and one parent
// span per window, and times sim::Scheduler alone on a hold model at the
// workload's pending depth.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "syndog/campaign/campaign_sim.hpp"
#include "syndog/net/address.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/time.hpp"

namespace perfbench {
namespace {

namespace campaign = syndog::campaign;
namespace net = syndog::net;
namespace sim = syndog::sim;
using syndog::util::SimTime;

// bench_campaign_scale's detectable wave: 1,000 stubs of 1,000 hosts with
// wire-level background, A_s = 378 of them flooding at 2.5 f_min. The
// flood runs the whole 140 s (7 periods), not from 60 s on (4 periods).
// Over 4 periods the weakest of the 378 flooding stubs peaks at y = 1.0-1.6
// against N = 1.05, so about one seed in 300 leaves a flooding stub
// unalarmed and fails the gate. Over 7 periods it peaks at 1.8-2.9. K-bar
// counts only SYN/ACKs, which the spoofed flood never draws, so the flood
// needs no clean warm-up.
constexpr int kStubs = 1000;
constexpr std::uint32_t kHostsPerStub = 1000;
constexpr double kBgRate = 3.0;  ///< connections/s per stub
constexpr double kEndS = 140.0;
constexpr int kFloodStubs = 378;
constexpr double kFloodRatio = 2.5;  ///< flood rate over the sim's f_min

/// The workload calls' arguments, generated once from the seed (the
/// benchmark's input, excluded from set-up time and memory).
struct CampaignInput {
  std::vector<int> flood_stubs;
  std::vector<std::vector<SimTime>> flood_times;  ///< per flooding stub
  std::uint64_t flood_events = 0;
  /// Sum over the flood events of their fire time over the run's end:
  /// launch_flood schedules them all up front, so each is pending that
  /// share of the run.
  double flood_pending = 0.0;
};

campaign::CampaignParams params_of(std::uint64_t seed) {
  campaign::CampaignParams p;
  p.stub_count = kStubs;
  p.hosts_per_stub = kHostsPerStub;
  p.seed = seed;
  return p;
}

CampaignInput generate(std::uint64_t seed) {
  Rng rng(seed);
  CampaignInput in;
  std::vector<int> order(kStubs);
  for (int s = 0; s < kStubs; ++s) order[static_cast<std::size_t>(s)] = s;
  for (int i = 0; i < kFloodStubs; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.between(static_cast<std::uint64_t>(i), std::uint64_t{kStubs - 1}));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  in.flood_stubs.assign(order.begin(), order.begin() + kFloodStubs);
  std::sort(in.flood_stubs.begin(), in.flood_stubs.end());

  // The sim's own Eq. (8) floor, as bench_campaign_scale sizes it: K-bar
  // settles at kBgRate * t0, so f_min = a * K-bar / t0 = a * kBgRate.
  const double f_min = params_of(seed).agent_params.a * kBgRate;
  const double rate = kFloodRatio * f_min;
  for (std::size_t i = 0; i < in.flood_stubs.size(); ++i) {
    std::vector<SimTime>& times = in.flood_times.emplace_back();
    for (double t = rng.exponential(1.0 / rate); t < kEndS;
         t += rng.exponential(1.0 / rate)) {
      times.push_back(SimTime::from_seconds(t));
      in.flood_pending += t / kEndS;
    }
    in.flood_events += times.size();
  }
  return in;
}

struct PassResult {
  double construct_s = 0.0;
  double workload_s = 0.0;
  double run_s = 0.0;
  double mem_mb = 0.0;
};

class CampaignBench {
 public:
  explicit CampaignBench(std::uint64_t seed)
      : params_(params_of(seed)), in_(generate(seed)) {}

  const CampaignInput& input() const { return in_; }
  static SimTime end() { return SimTime::from_seconds(kEndS); }
  static double stub_seconds() { return kStubs * kEndS; }

  /// Constructs the campaign and makes the workload calls.
  std::unique_ptr<campaign::CampaignSim> build(PassResult& r) const {
    const std::int64_t t0 = now_ns();
    auto sim = std::make_unique<campaign::CampaignSim>(params_);
    const std::int64_t t1 = now_ns();
    for (int s = 0; s < kStubs; ++s) {
      sim->start_wire_background(s, kBgRate, SimTime::zero(), end());
    }
    const net::Ipv4Prefix spoof{net::Ipv4Address{240, 0, 0, 0}, 8};
    for (std::size_t i = 0; i < in_.flood_stubs.size(); ++i) {
      sim->launch_flood(in_.flood_stubs[i], 1, in_.flood_times[i], spoof);
    }
    const std::int64_t t2 = now_ns();
    r.construct_s = seconds_between(t0, t1);
    r.workload_s = seconds_between(t1, t2);
    return sim;
  }

  /// One untraced pass on `workers` threads (1 = the inline reference).
  bool pass(Outcome& out, int workers, PassResult& r) {
    MemWindow mem;
    auto sim = build(r);
    const std::int64_t t0 = now_ns();
    if (workers <= 1) {
      sim->run_until(end());
    } else {
      sim->run_until(end(), workers);
    }
    r.run_s = seconds_between(t0, now_ns());
    r.mem_mb = mem.added_mb();
    return check(out, *sim, workers);
  }

  /// Output gate; the first inline run's digest becomes the oracle.
  bool check(Outcome& out, const campaign::CampaignSim& sim, int workers) {
    int flood_alarmed = 0;
    for (const int s : in_.flood_stubs) {
      flood_alarmed += sim.agent(s).ever_alarmed() ? 1 : 0;
    }
    const int alarmed = sim.stubs_alarmed();
    std::string digest = sim.state_digest();
    bool same = true;
    if (oracle_.empty() && workers <= 1) {
      oracle_ = std::move(digest);
    } else {
      same = digest == oracle_;
    }
    return out.gate(
        same && flood_alarmed == kFloodStubs && alarmed == kFloodStubs,
        std::to_string(workers) + "-worker campaign: " +
            std::to_string(flood_alarmed) + " of " +
            std::to_string(kFloodStubs) + " flooding stubs and " +
            std::to_string(alarmed - flood_alarmed) +
            " others alarmed; digest " +
            (same ? "equals" : "differs from") + " the inline run's");
  }

 private:
  campaign::CampaignParams params_;
  CampaignInput in_;
  std::string oracle_;
};

/// ns per event of Scheduler::schedule_at + step with empty callbacks,
/// holding `depth` events pending (the classic hold model).
double scheduler_hold_ns(std::size_t depth, std::uint64_t seed, SpanLog& log) {
  constexpr std::size_t kEvents = 1 << 20;
  Rng rng(seed ^ 0x5eedULL);
  std::vector<std::int64_t> gaps(kEvents);
  for (std::int64_t& g : gaps) {
    g = static_cast<std::int64_t>(rng.between(1, 10'000'000));  // <= 10 ms
  }
  sim::Scheduler sched;
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_at(SimTime::nanoseconds(static_cast<std::int64_t>(
                          rng.between(1, 10'000'000))),
                      [] {});
  }
  const std::int32_t span = log.open(log.intern("sim.sched_hold"));
  for (const std::int64_t g : gaps) {
    sched.step();
    sched.schedule_at(sched.now() + SimTime::nanoseconds(g), [] {});
  }
  log.close(span);
  return static_cast<double>(log.at(span).duration()) / kEvents;
}

/// Totals of one traced protocol run. Span times have the in-span cost
/// of an empty span taken off each span (SpanCost::inside_ns).
struct ProtocolTotals {
  double cell_ns = 0.0;
  std::uint64_t events = 0;
  double exchange_ns = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t records = 0;
  std::uint64_t visits = 0;
  std::uint64_t busy_visits = 0;
  double sum_max_cell_ns = 0.0;
  double sum_mean_cell_ns = 0.0;
  double ideal_2w_ns = 0.0;  ///< sum over windows of 2-way makespan + exchange
  std::int64_t run_ns = 0;
};

/// Drives run_until(end)'s window protocol by hand, with spans.
ProtocolTotals traced_protocol(campaign::CampaignSim& sim, SimTime end,
                               const SpanCost& cost, SpanLog& log) {
  const std::uint32_t window_name = log.intern("campaign.window");
  const std::uint32_t cell_name = log.intern("campaign.run_cell_until");
  const std::uint32_t exchange_name = log.intern("campaign.exchange_and_advance");
  const auto net_ns = [&](std::int64_t s, std::int64_t e) {
    return std::max(0.0, static_cast<double>(e - s) - cost.inside_ns);
  };
  ProtocolTotals t;
  const int cells = sim.cell_count();
  const std::int64_t start = now_ns();
  while (sim.now() < end) {
    const SimTime barrier = std::min(sim.now() + sim.window(), end);
    const std::int32_t w = log.open(window_name);
    double max_ns = 0.0;
    double sum_ns = 0.0;
    double load[2] = {0.0, 0.0};
    for (int c = 0; c < cells; ++c) {
      const std::int64_t s = now_ns();
      const std::size_t ran = sim.run_cell_until(c, barrier);
      const std::int64_t e = now_ns();
      log.add(cell_name, w, s, e);
      const double d = net_ns(s, e);
      t.events += ran;
      t.busy_visits += ran > 0 ? 1 : 0;
      max_ns = std::max(max_ns, d);
      sum_ns += d;
      // CampaignRunner hands cells out in index order to whichever worker
      // is free, so the ideal two-worker schedule is greedy list order.
      load[load[0] <= load[1] ? 0 : 1] += d;
    }
    const campaign::CrossStats before = sim.cross_stats();
    const std::int64_t xs = now_ns();
    sim.exchange_and_advance(barrier);
    const std::int64_t xe = now_ns();
    log.add(exchange_name, w, xs, xe);
    log.close(w);
    const campaign::CrossStats after = sim.cross_stats();
    t.records += (after.to_victim - before.to_victim) +
                 (after.to_stubs - before.to_stubs);
    t.cell_ns += sum_ns;
    t.exchange_ns += net_ns(xs, xe);
    t.visits += static_cast<std::uint64_t>(cells);
    ++t.windows;
    t.sum_max_cell_ns += max_ns;
    t.sum_mean_cell_ns += sum_ns / cells;
    t.ideal_2w_ns += std::max(load[0], load[1]) + net_ns(xs, xe);
  }
  t.run_ns = now_ns() - start;
  return t;
}

}  // namespace

Outcome run_campaign(const Options& opt) {
  Outcome out;
  const std::int64_t gen0 = now_ns();
  CampaignBench bench(opt.seed);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d stubs, %zu flooding, %llu flood "
               "events scheduled up front (generated in %.2f s)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               kStubs, bench.input().flood_stubs.size(),
               static_cast<unsigned long long>(bench.input().flood_events),
               seconds_between(gen0, now_ns()));

  // Warm-up and oracle: one inline pass, untimed in the results.
  PassResult warm;
  if (!bench.pass(out, 1, warm)) return out;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);

  if (!opt.trace) {
    std::vector<double> tput1;
    std::vector<double> tput2;
    std::vector<double> setup;
    std::vector<double> mem;
    do {
      PassResult a;
      PassResult b;
      const bool ok_a = bench.pass(out, 1, a);
      const bool ok_b = bench.pass(out, 2, b);
      if (ok_a) tput1.push_back(CampaignBench::stub_seconds() / a.run_s);
      if (ok_b) tput2.push_back(CampaignBench::stub_seconds() / b.run_s);
      if (ok_a && ok_b) {
        setup.push_back(a.construct_s + a.workload_s + b.construct_s +
                        b.workload_s);
        mem.push_back(std::max(a.mem_mb, b.mem_mb));
      }
    } while (now_ns() < deadline);
    std::fprintf(stderr, "perfbench: %zu inline and %zu two-worker passes\n",
                 tput1.size(), tput2.size());
    print_passes("throughput", tput1);
    print_passes("throughput_2t", tput2);
    out.add("throughput", harmonic_mean(tput1), "work/s");
    out.add("throughput_2t", harmonic_mean(tput2), "work/s");
    out.add("setup_s", median(setup), "s");
    out.add("mem_mb", median(mem), "MB");
    return out;
  }

  // ---- Traced run ----------------------------------------------------
  SpanLog log;
  TraceRecord rec;
  std::vector<double> cell_ns, sched_ns, handler_ns, exchange_ns,
      exchange_record_ns, busy_share, imbalance, overhead_s, construct_s,
      workload_s, overhead_pct, span_inside, span_outside, residual_pct;
  std::size_t depth = 0;
  std::uint32_t pass = 0;
  ProtocolTotals last;
  std::unique_ptr<campaign::CampaignSim> sim;
  do {
    log.begin_pass(++pass);
    sim.reset();
    PassResult plain;
    PassResult two;
    bench.pass(out, 1, plain);
    bench.pass(out, 2, two);

    PassResult traced;
    const std::int32_t cs = log.open(log.intern("campaign.setup"));
    const std::int64_t b0 = now_ns();
    sim = bench.build(traced);
    log.add(log.intern("campaign.construct"), cs, b0,
            b0 + static_cast<std::int64_t>(traced.construct_s * 1e9));
    log.add(log.intern("campaign.workload"), cs,
            b0 + static_cast<std::int64_t>(traced.construct_s * 1e9), now_ns());
    log.close(cs);
    // Mean pending events per stub cell, from the generated input: each
    // up-front flood event is pending its fire time over the run's end,
    // and every stub holds two standing events (the agent's period timer
    // and its next background step).
    const int stub_cells = sim->cell_count() - 1;
    depth = static_cast<std::size_t>(
        (bench.input().flood_pending + 2.0 * kStubs) / stub_cells);
    const SpanCost cost = measure_empty_span(log, kSpanCostSamples);
    const ProtocolTotals t = traced_protocol(*sim, CampaignBench::end(), cost, log);
    bench.check(out, *sim, 1);
    last = t;

    const double sched = scheduler_hold_ns(depth, opt.seed, log);
    const double cell = t.cell_ns / static_cast<double>(t.events);
    cell_ns.push_back(cell);
    sched_ns.push_back(sched);
    handler_ns.push_back(cell - sched);
    exchange_ns.push_back(t.exchange_ns / static_cast<double>(t.windows));
    exchange_record_ns.push_back(
        t.records == 0 ? 0.0 : t.exchange_ns / static_cast<double>(t.records));
    busy_share.push_back(static_cast<double>(t.busy_visits) / static_cast<double>(t.visits));
    imbalance.push_back(t.sum_max_cell_ns / t.sum_mean_cell_ns);
    overhead_s.push_back(two.run_s - t.ideal_2w_ns / 1e9);
    construct_s.push_back(traced.construct_s);
    workload_s.push_back(traced.workload_s);
    overhead_pct.push_back((static_cast<double>(t.run_ns) / 1e9 / plain.run_s - 1.0) * 100.0);
    span_inside.push_back(cost.inside_ns);
    span_outside.push_back(cost.outside_ns);
    residual_pct.push_back(((t.cell_ns + t.exchange_ns) / 1e9 / plain.run_s - 1.0) * 100.0);

    rec.end_pass(log, log.totals());
  } while (now_ns() < deadline);

  out.add("campaign.cell_ns", median(cell_ns), "ns");
  out.add("sim.sched_ns", median(sched_ns), "ns");
  out.add("campaign.handler_ns", median(handler_ns), "ns");
  out.add("campaign.exchange_ns", median(exchange_ns), "ns");
  out.add("campaign.exchange_record_ns", median(exchange_record_ns), "ns");
  out.add("campaign.busy_cell_share", median(busy_share), "ratio");
  out.add("campaign.imbalance", median(imbalance), "ratio");
  out.add("campaign.parallel_overhead_s", median(overhead_s), "s");
  out.add("campaign.construct_s", median(construct_s), "s");
  out.add("campaign.workload_s", median(workload_s), "s");
  out.add("trace.overhead_pct", median(overhead_pct), "%");
  out.add("sim.events", static_cast<double>(sim->events_executed()), "count");
  out.add("campaign.windows", static_cast<double>(last.windows), "count");
  out.add("campaign.cross_records", static_cast<double>(last.records), "count");
  out.add("sim.tcp.backlog_drops",
          static_cast<double>(sim->victim().stats().backlog_drops), "count");
  std::fprintf(stderr,
               "perfbench: scheduler hold model at %zu pending events per "
               "cell; empty span %.1f ns inside, %.1f ns outside; cell and "
               "exchange spans net of them are %+.1f%% off the untraced run\n",
               depth, median(span_inside), median(span_outside),
               median(residual_pct));
  if (!opt.span_file.empty()) write_span_file(opt.span_file, log, rec);
  return out;
}

}  // namespace perfbench
