// Reproduces Table 2: detection performance of the SYN-dog at UNC.
//
// Floods of rate fi in {37, 40, 45, 60, 80, 120} SYN/s, 10-minute
// duration, onset uniform in [3 min, 9 min] (the paper's setting), over an
// ensemble of trials. Paper values:
//   fi:    37    40     45    60  80  120
//   prob:  0.8   1.0    1.0   1.0 1.0 1.0
//   time:  19.8  13.25  8.65  4   2   1     (in 20 s observation periods)
#include <cstdio>

#include "common/experiment.hpp"
#include "common/sidecar.hpp"

using namespace syndog;

int main() {
  bench::print_header(
      "table2_unc_detection", "Table 2 -- detection performance at UNC",
      "f_min = 37 SYN/s; larger floods detected faster");

  const trace::SiteSpec spec = trace::site_spec(trace::SiteId::kUnc);
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  bench::EnsembleConfig cfg;
  cfg.trials = 25;
  cfg.seed = 1000;
  cfg.start_min_s = 3 * 60.0;  // paper: random start between 3 and 9 min
  cfg.start_max_s = 9 * 60.0;

  bench::run_detection_table(spec, params, cfg,
                             {{37, 0.8, "19.80"},
                              {40, 1.0, "13.25"},
                              {45, 1.0, "8.65"},
                              {60, 1.0, "4.00"},
                              {80, 1.0, "2.00"},
                              {120, 1.0, "1.00"}},
                             /*fi_decimals=*/0);
  std::printf(
      "\n%d trials per rate; delay in observation periods (t0 = 20 s).\n"
      "Expected shape: probability ~0.7-0.9 at fi=37 (the detection floor)\n"
      "rising to 1.0 by fi=40, with delay falling monotonically from ~20\n"
      "periods to ~1-3 periods at fi=120.\n",
      cfg.trials);

  // Sidecar extras: the UNC calibration scalars this table rests on, and
  // the per-period CUSUM trajectory of one representative floor-rate trial
  // run through the instrumented SynDog (its counters/gauges land in the
  // sidecar "metrics" block).
  const auto [k_bar, c] = bench::record_site_calibration(spec, "unc");
  std::printf("calibration: K-bar %.1f (paper ~2114), c %.4f (paper ~0.049)\n",
              k_bar, c);

  bench::Sidecar& side = *bench::sidecar();
  const bench::FloodTrial trial = bench::make_flood_trial(spec, 37.0, cfg, 0);
  const std::vector<core::PeriodReport> reports = core::run_over_series(
      params, trial.out_syn, trial.in_syn_ack, &side.registry());
  std::vector<double> yn;
  yn.reserve(reports.size());
  for (const core::PeriodReport& r : reports) yn.push_back(r.y);
  side.series("yn_fi37_trial0", std::move(yn));
  side.scalar("yn_fi37_onset_period", static_cast<double>(trial.onset_period));
  return 0;
}
