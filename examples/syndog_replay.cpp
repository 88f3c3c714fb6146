// Streaming SYN-dog replay, tcpreplay-style.
//
// Streams a capture — classic pcap or pcapng, any size — through the
// ingest pipeline in O(ring) memory and demultiplexes it onto per-stub
// SYN-dog agents: each --stubs prefix gets its own agent, driven by the
// capture's timestamps on a discrete-event clock, so period rollovers,
// CUSUM updates, and alarms land exactly where the simulated deployments
// put them.
//
//   $ syndog_replay capture.pcap                 # default stub 10.1.0.0/16
//   $ syndog_replay capture.pcapng --stubs 10.1.0.0/16,10.2.0.0/16
//   $ syndog_replay capture.pcap --pace 60       # 60x capture speed
//   $ syndog_replay capture.pcap --threads 4     # sharded parallel ingest
//   $ syndog_replay --gen demo.pcap              # write a demo capture
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "syndog/attack/flood.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/sharded.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"

using namespace syndog;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <capture.pcap|pcapng> [--pace X] [--threads N] "
               "[--stubs P1[,P2...]] [--default-stub N|none] "
               "[--dump-periods F]\n"
               "       %s --gen <out.pcap>\n"
               "  --pace X         throttle to X x capture speed "
               "(default: as fast as possible; incompatible with "
               "--threads > 1)\n"
               "  --threads N      shard ingest across N consumer threads "
               "(default 1 = single-threaded reference)\n"
               "  --stubs ...      comma-separated CIDR prefixes, one "
               "agent each (default 10.1.0.0/16)\n"
               "  --default-stub   stub index credited with frames "
               "matching no prefix ('none' to drop)\n"
               "  --dump-periods F write every stub's per-period table to "
               "F at full precision\n",
               argv0, argv0);
  return 2;
}

/// Same demo trace as examples/pcap_sniffer: a calibrated small site with
/// a spoofed flood from host 23 starting at minute 4.
void generate_demo_capture(const std::string& path) {
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kAuckland);
  spec.duration = util::SimTime::minutes(10);
  spec.outbound_rate = 10.0;
  spec.inbound_rate = 4.0;
  const trace::ConnectionTrace background =
      trace::generate_site_trace(spec, 7);

  trace::RenderConfig render_cfg;
  std::vector<trace::TimedPacket> packets =
      trace::render_trace(background, render_cfg);

  attack::FloodSpec flood;
  flood.rate = 40.0;
  flood.start = util::SimTime::minutes(4);
  flood.duration = util::SimTime::minutes(5);
  util::Rng rng(9);
  trace::AttackRenderConfig attack_cfg;
  attack_cfg.attacker_hosts = {23};
  packets = trace::merge_packets(
      std::move(packets),
      trace::render_attack(attack::generate_flood_times(flood, rng),
                           attack_cfg));

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open " + path);
  pcap::Writer writer(file);
  for (const trace::TimedPacket& tp : packets) {
    writer.write(tp.at, net::encode_frame(tp.packet));
  }
  writer.flush();
  std::printf("generated %s: %llu frames, flood by host 23 from minute 4\n",
              path.c_str(),
              static_cast<unsigned long long>(writer.records_written()));
}

std::vector<ingest::StubSpec> parse_stubs(const std::string& arg) {
  std::vector<ingest::StubSpec> stubs;
  std::size_t begin = 0;
  while (begin <= arg.size()) {
    std::size_t comma = arg.find(',', begin);
    if (comma == std::string::npos) comma = arg.size();
    const std::string text = arg.substr(begin, comma - begin);
    const auto prefix = net::Ipv4Prefix::parse(text);
    if (!prefix) {
      throw std::runtime_error("bad stub prefix: '" + text + "'");
    }
    stubs.push_back(ingest::StubSpec{*prefix, text});
    begin = comma + 1;
  }
  return stubs;
}

/// One stub's replay outcome, independent of which ingest path produced it.
struct StubResult {
  std::string name;
  const std::vector<core::PeriodReport>* history = nullptr;
};

long long first_alarm_period(const std::vector<core::PeriodReport>& history) {
  for (const core::PeriodReport& r : history) {
    if (r.alarm) return static_cast<long long>(r.period_index);
  }
  return -1;
}

void print_stub_tables(const std::vector<StubResult>& results) {
  bool any_alarm = false;
  for (const StubResult& stub : results) {
    std::printf("\nstub %s: %zu periods observed\n", stub.name.c_str(),
                stub.history->size());
    std::printf("  n   SYN  SYN/ACK     Xn      yn\n");
    for (const core::PeriodReport& r : *stub.history) {
      std::printf("%3lld  %5lld  %5lld  %+.3f  %6.3f %s\n",
                  static_cast<long long>(r.period_index),
                  static_cast<long long>(r.syn_count),
                  static_cast<long long>(r.syn_ack_count), r.x, r.y,
                  r.alarm ? "ALARM" : "");
    }
    const long long alarm_period = first_alarm_period(*stub.history);
    if (alarm_period >= 0) {
      any_alarm = true;
      std::printf("  verdict: ALARMED at period %lld — SYN flooding "
                  "sources inside this stub\n",
                  alarm_period);
    } else {
      std::printf("  verdict: no flooding seen\n");
    }
  }
  std::printf("\ndetector %s\n",
              any_alarm ? "ALARMED" : "saw nothing suspicious");
}

/// Writes every stub's per-period table at full double precision, so two
/// runs agree on the file iff their detector trajectories are bit-identical
/// (the printed table rounds to 3 decimals and could mask a divergence).
void dump_periods(const std::string& dump_path,
                  const std::vector<StubResult>& results) {
  std::ofstream out(dump_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + dump_path);
  char line[160];
  for (const StubResult& stub : results) {
    out << "# stub " << stub.name << " periods=" << stub.history->size()
        << "\n";
    for (const core::PeriodReport& r : *stub.history) {
      std::snprintf(line, sizeof line, "%lld %lld %lld %.17g %.17g %d\n",
                    static_cast<long long>(r.period_index),
                    static_cast<long long>(r.syn_count),
                    static_cast<long long>(r.syn_ack_count), r.x, r.y,
                    r.alarm ? 1 : 0);
      out << line;
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + dump_path);
}

int replay(const std::string& path, double pace,
           const std::vector<ingest::StubSpec>& stubs, int default_stub,
           const std::string& dump_path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  ingest::ReplayConfig cfg;
  if (pace > 0.0) {
    cfg.clock = ingest::ReplayClock::kPaced;
    cfg.speed = pace;
  }
  ingest::ReplayEngine engine(file, cfg);

  ingest::DemuxOptions options;
  options.default_stub = default_stub;
  ingest::AgentDemux demux(engine.scheduler(), stubs,
                           core::SynDogParams::paper_defaults(), options);
  engine.add_sink(demux);

  std::printf("%s: %s stream, %zu stub agent(s)\n", path.c_str(),
              engine.format() == ingest::CaptureFormat::kPcapng
                  ? "pcapng"
                  : "pcap",
              stubs.size());

  const ingest::PipelineStats& stats = engine.run();
  demux.close_final_period();

  std::printf("%llu records, %llu frames (%llu undecodable), %llu bytes%s\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.decode_failures),
              static_cast<unsigned long long>(stats.bytes),
              stats.truncated ? " -- capture ends mid-record" : "");
  if (demux.local_frames() != 0 || demux.unroutable_frames() != 0) {
    std::printf("%llu LAN-local frames, %llu unroutable\n",
                static_cast<unsigned long long>(demux.local_frames()),
                static_cast<unsigned long long>(demux.unroutable_frames()));
  }

  std::vector<StubResult> results;
  results.reserve(demux.stub_count());
  for (std::size_t i = 0; i < demux.stub_count(); ++i) {
    results.push_back(StubResult{demux.stub(i).name, &demux.agent(i).history()});
  }
  print_stub_tables(results);
  if (!dump_path.empty()) dump_periods(dump_path, results);
  return 0;
}

int replay_sharded(const std::string& path, std::size_t threads,
                   const std::vector<ingest::StubSpec>& stubs,
                   int default_stub, const std::string& dump_path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  ingest::ShardedConfig cfg;
  cfg.threads = threads;
  cfg.params = core::SynDogParams::paper_defaults();
  cfg.default_stub = default_stub;
  ingest::ShardedReplay sharded(file, stubs, cfg);

  std::printf("%s: %s stream, %zu stub agent(s), %zu ingest threads\n",
              path.c_str(),
              sharded.format() == ingest::CaptureFormat::kPcapng ? "pcapng"
                                                                 : "pcap",
              stubs.size(), threads);

  sharded.run();
  const ingest::PipelineStats& stats = sharded.stats();

  std::printf("%llu records, %llu frames (%llu undecodable), %llu bytes%s\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.decode_failures),
              static_cast<unsigned long long>(stats.bytes),
              stats.truncated ? " -- capture ends mid-record" : "");
  if (sharded.local_frames() != 0 || sharded.unroutable_frames() != 0) {
    std::printf("%llu LAN-local frames, %llu unroutable\n",
                static_cast<unsigned long long>(sharded.local_frames()),
                static_cast<unsigned long long>(sharded.unroutable_frames()));
  }

  std::vector<StubResult> results;
  results.reserve(sharded.stub_count());
  for (std::size_t i = 0; i < sharded.stub_count(); ++i) {
    results.push_back(StubResult{sharded.stub(i).name, &sharded.history(i)});
  }
  print_stub_tables(results);
  if (!dump_path.empty()) dump_periods(dump_path, results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string gen_path;
  std::string dump_path;
  std::string stubs_arg = "10.1.0.0/16";
  std::string default_stub_arg = "0";
  double pace = 0.0;
  long threads = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe) -- CLI arg parsing, pre-threads
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--pace") {
      pace = std::atof(value());
      if (!(pace > 0.0)) return usage(argv[0]);
    } else if (arg == "--threads") {
      threads = std::atol(value());
      if (threads < 1) return usage(argv[0]);
    } else if (arg == "--dump-periods") {
      dump_path = value();
      if (dump_path.empty()) return usage(argv[0]);
    } else if (arg == "--stubs") {
      stubs_arg = value();
    } else if (arg == "--default-stub") {
      default_stub_arg = value();
    } else if (arg == "--gen") {
      gen_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (!gen_path.empty()) {
      generate_demo_capture(gen_path);
      if (path.empty()) return 0;
    }
    if (path.empty()) return usage(argv[0]);
    if (threads > 1 && pace > 0.0) {
      std::fprintf(stderr,
                   "syndog_replay: --pace needs the single-threaded replay "
                   "clock; drop it or use --threads 1\n");
      return usage(argv[0]);
    }
    const std::vector<ingest::StubSpec> stubs = parse_stubs(stubs_arg);
    const int default_stub =
        default_stub_arg == "none" ? -1 : std::atoi(default_stub_arg.c_str());
    if (threads > 1) {
      return replay_sharded(path, static_cast<std::size_t>(threads), stubs,
                            default_stub, dump_path);
    }
    return replay(path, pace, stubs, default_stub, dump_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "syndog_replay: %s\n", e.what());
    return 1;
  }
}
