// perfbench: end-to-end and per-layer benchmark of the SYN-dog ingest and
// campaign datapaths.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-file <path>]
//
// Prints, as its last line, one JSON object: whether every pass held the
// output gate, passes attempted and failed, the metrics by name with
// their units, and the build it was compiled as. Exits 1 when any pass
// failed the gate, 2 on a usage error. perfbench/run.py builds and runs
// it; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

void write_span_file(const std::string& path, const SpanLog& log,
                     const TraceRecord& rec) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write span file %s\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < rec.kept.size(); ++i) {
    const Span& s = rec.kept[i];
    out << "{\"id\":" << i << ",\"pass\":" << s.pass << ",\"name\":\""
        << log.names()[s.name] << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  for (std::size_t n = 0; n < rec.totals.size(); ++n) {
    const NameTotals& t = rec.totals[n];
    out << "{\"layer_span\":\"" << log.names()[n] << "\",\"count\":" << t.count
        << ",\"children\":" << t.children << ",\"total_ns\":" << t.total_ns
        << ",\"self_ns\":" << t.self_ns << "}\n";
  }
  for (std::size_t n = 0; n < rec.elided.size(); ++n) {
    if (rec.elided[n] == 0) continue;
    out << "{\"elided\":\"" << log.names()[n] << "\",\"count\":"
        << rec.elided[n] << "}\n";
  }
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{ingest-minframe|ingest-fleet|campaign-wire} "
               "--seed N --seconds S --trace {0|1} [--span-file PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--span-file") {
      opt.span_file = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Outcome out;
  try {
    if (opt.workload == "ingest-minframe" || opt.workload == "ingest-fleet") {
      out = perfbench::run_ingest(opt);
    } else if (opt.workload == "campaign-wire") {
      out = perfbench::run_campaign(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i != 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}, \"build\": {\"compiler\": \"" PERFBENCH_COMPILER
          "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
