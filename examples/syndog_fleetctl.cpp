// Fleet telemetry query tool: rolls up syndog-tsf/1 files.
//
// A fleet of SYN-dog stubs streams into one telemetry file (see
// core::FleetRecorder and docs/OBSERVABILITY.md §Fleet telemetry); this
// tool answers the operator questions over that file: which ASes
// alarmed and when, how the K-bar baseline drifted, and how healthy the
// fleet is. All output is deterministic — identical files print
// byte-identical text (tests/fleetctl_determinism.cmake pins this, and
// pins that two `gen` runs write identical files).
//
//   $ syndog_fleetctl gen fleet.tsf           # write a demo campaign
//   $ syndog_fleetctl summary fleet.tsf       # whole-file JSON
//   $ syndog_fleetctl alarms fleet.tsf        # alarm timeline CSV
//   $ syndog_fleetctl kbar fleet.tsf --bucket-s 600 --as 64497
//   $ syndog_fleetctl drift fleet.tsf y       # any metric's drift
//   $ syndog_fleetctl health fleet.tsf        # per-AS health CSV
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "syndog/core/fleet.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/telemetry/rollup.hpp"
#include "syndog/telemetry/sink.hpp"
#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

using namespace syndog;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s gen <out.tsf>\n"
      "       %s summary <file.tsf>\n"
      "       %s alarms <file.tsf>\n"
      "       %s kbar <file.tsf> [--bucket-s N] [--as N]\n"
      "       %s drift <file.tsf> <metric> [--bucket-s N] [--as N]\n"
      "       %s health <file.tsf>\n"
      "       %s mitigation <file.tsf>\n"
      "  gen       write a deterministic demo fleet campaign\n"
      "  summary   whole-file JSON: dictionaries, spans, per-AS fleet\n"
      "  alarms    alarm edge timeline CSV, ordered by (AS, agent, t)\n"
      "  kbar      K-bar drift CSV (bucketed mean/min/max; default 1 h)\n"
      "  drift     same rollup for any metric in the file\n"
      "  health    per-AS health summary CSV\n"
      "  mitigation  stage edge timeline CSV (observe/rate-limit/"
      "quarantine)\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Demo campaign: 12 stubs in 3 ASes over ~3.3 h of sim time. Two stubs
/// of AS 64498 flood near the end (their alarms populate the timeline)
/// and two agents end the run in non-healthy states.
void generate_demo(const std::string& path) {
  constexpr std::uint64_t kSeed = 20020816;
  constexpr int kAgents = 12;
  constexpr int kAgentsPerAs = 4;
  constexpr std::int64_t kPeriods = 600;
  constexpr std::int64_t kT0Seconds = 20;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  telemetry::TelemetrySink sink(out);
  {
    core::FleetRecorder fleet(sink, core::FleetRecorder::Cadence{5});
    core::SynDogParams params;
    params.observation_period = util::SimTime::seconds(kT0Seconds);
    for (int a = 0; a < kAgents; ++a) {
      char name[32];
      std::snprintf(name, sizeof name, "demo%02d", a);
      fleet.add_agent(name,
                      static_cast<std::uint32_t>(64496 + a / kAgentsPerAs),
                      params);
    }
    for (std::int64_t period = 0; period < kPeriods; ++period) {
      const util::SimTime at =
          util::SimTime::seconds(kT0Seconds * (period + 1));
      for (int a = 0; a < kAgents; ++a) {
        util::Rng rng = util::Rng::child(
            kSeed, static_cast<std::uint64_t>(a) * 100000 +
                       static_cast<std::uint64_t>(period));
        const double lambda = 40.0 + 5.0 * a;
        const std::int64_t syn_acks = rng.poisson(lambda);
        std::int64_t syns = syn_acks + rng.poisson(0.05 * lambda);
        // Stubs 8 and 9 (AS 64498) flood for the last 40 periods.
        if ((a == 8 || a == 9) && period >= kPeriods - 40) {
          syns += rng.poisson(3.0 * lambda);
        }
        fleet.observe(static_cast<std::size_t>(a), syns, syn_acks, at);
      }
    }
    // Fast-forward slots never change health on their own; stamp two
    // end-of-run states so the health rollup has something to say.
    const std::uint32_t health =
        sink.metric_id(core::kFleetMetricHealth);
    sink.push(sink.series_id(3, health),
              util::SimTime::seconds(kT0Seconds * kPeriods), 1.0);
    sink.push(sink.series_id(7, health),
              util::SimTime::seconds(kT0Seconds * kPeriods), 2.0);
    // Stub 8's aggregate mitigation stage during its flood: engage ->
    // quarantine -> probe back through rate-limit -> release.
    const std::uint32_t mitigation =
        sink.metric_id(core::kFleetMetricMitigation);
    const std::int64_t flood_start = kPeriods - 40;
    const auto stamp = [&](std::int64_t period, double stage) {
      sink.push(sink.series_id(8, mitigation),
                util::SimTime::seconds(kT0Seconds * (period + 1)), stage);
    };
    stamp(flood_start + 1, 1.0);   // engage: rate-limit
    stamp(flood_start + 4, 2.0);   // escalate: quarantine
    stamp(kPeriods - 4, 1.0);      // staged release: probe at rate-limit
    stamp(kPeriods - 2, 0.0);      // probe passed: observe
  }
  sink.finish();
}

struct DriftArgs {
  util::SimTime bucket = util::SimTime::hours(1);
  std::optional<std::uint32_t> as_filter;
};

bool parse_drift_args(int argc, char** argv, int first, DriftArgs& out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bucket-s" && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v <= 0) return false;
      out.bucket = util::SimTime::seconds(v);
    } else if (arg == "--as" && i + 1 < argc) {
      out.as_filter = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    if (cmd == "gen") {
      if (argc != 3) return usage(argv[0]);
      generate_demo(path);
      std::printf("wrote %s\n", path.c_str());
      return 0;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv[0], path.c_str());
      return 1;
    }
    const telemetry::TsfReader reader(in);
    if (reader.end() == telemetry::ReadEnd::kTruncated) {
      std::fprintf(stderr,
                   "%s: warning: %s is truncated or damaged; rolling up "
                   "the intact prefix (%llu samples)\n",
                   argv[0], path.c_str(),
                   static_cast<unsigned long long>(reader.total_samples()));
    }

    if (cmd == "summary" && argc == 3) {
      std::printf("%s\n", telemetry::fleet_summary_json(reader).c_str());
      return 0;
    }
    if (cmd == "alarms" && argc == 3) {
      const auto timeline =
          telemetry::alarm_timeline(reader, core::kFleetMetricAlarm);
      std::fputs(telemetry::alarm_timeline_csv(reader, timeline).c_str(),
                 stdout);
      return 0;
    }
    if (cmd == "kbar" || cmd == "drift") {
      std::string metric(core::kFleetMetricK);
      int first = 3;
      if (cmd == "drift") {
        if (argc < 4) return usage(argv[0]);
        metric = argv[3];
        first = 4;
      }
      DriftArgs drift;
      if (!parse_drift_args(argc, argv, first, drift)) return usage(argv[0]);
      std::fputs(
          telemetry::drift_csv(telemetry::metric_drift(
                                   reader, metric, drift.bucket,
                                   drift.as_filter))
              .c_str(),
          stdout);
      return 0;
    }
    if (cmd == "mitigation" && argc == 3) {
      const auto timeline =
          telemetry::stage_timeline(reader, core::kFleetMetricMitigation);
      std::fputs(telemetry::stage_timeline_csv(reader, timeline).c_str(),
                 stdout);
      return 0;
    }
    if (cmd == "health" && argc == 3) {
      std::fputs(telemetry::health_csv(telemetry::health_summary(
                                           reader, core::kFleetMetricHealth))
                     .c_str(),
                 stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return usage(argv[0]);
}
