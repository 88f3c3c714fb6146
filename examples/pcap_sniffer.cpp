// Offline pcap analysis, libpcap-tool style.
//
// With no arguments, first *generates* a capture file: a calibrated
// synthetic leaf-router trace with a spoofed SYN flood mixed in, written
// as a standard .pcap (open it in tcpdump/wireshark if you like). Then —
// or directly on a pcap you pass as argv[1] — it replays the capture
// into a first-mile SYN-dog agent for the stub 10.1.0.0/16, which counts
// the per-period SYN / SYN-ACK pairs and runs the CUSUM over them.
//
//   $ pcap_sniffer                # self-generate syndog_demo.pcap, analyze
//   $ pcap_sniffer capture.pcap   # analyze an existing Ethernet capture
//
// Analysis streams through ingest::ReplayEngine into an ingest::AgentDemux
// (as `syndog_tool analyze` does), so captures of any size run in
// constant memory and pcapng works transparently.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "syndog/attack/flood.hpp"
#include "syndog/classify/segment.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"

using namespace syndog;

namespace {

std::string generate_demo_capture() {
  const std::string path = "syndog_demo.pcap";
  // A small site (~10 conn/s) for 10 minutes, flood at minute 4.
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
  pcap::Writer writer(file);
  for (const trace::TimedPacket& tp : packets) {
    writer.write(tp.at, net::encode_frame(tp.packet));
  }
  std::printf("generated %s: %llu frames, flood by host 23 (%s) from "
              "minute 4\n\n",
              path.c_str(),
              static_cast<unsigned long long>(writer.records_written()),
              net::MacAddress::for_host(23).to_string().c_str());
  return path;
}

}  // namespace

/// The traffic mix: every replayed frame by segment kind.
class MixSink final : public ingest::ReplaySink {
 public:
  void on_frame(util::SimTime, const ingest::Frame& frame) override {
    mix_.add(classify::classify_packet(frame.packet));
  }

  [[nodiscard]] const classify::SegmentCounters& mix() const { return mix_; }

 private:
  classify::SegmentCounters mix_;
};

int analyze(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  ingest::ReplayEngine engine(file, {});
  // One first-mile agent for the stub 10.1.0.0/16, fed by the StubRouter
  // (frames with both endpoints in the stub are LAN-local and cross
  // neither sniffer); each closed period prints one row.
  ingest::AgentDemux demux(
      engine.scheduler(),
      {ingest::StubSpec{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
  bool alarmed = false;
  demux.agent(0).add_period_callback(
      [&alarmed](const core::PeriodReport& r, core::AgentHealth,
                 util::SimTime) {
        std::printf("%3lld  %5lld  %5lld  %+.3f  %6.3f %s\n",
                    static_cast<long long>(r.period_index),
                    static_cast<long long>(r.syn_count),
                    static_cast<long long>(r.syn_ack_count), r.x, r.y,
                    r.alarm ? "ALARM" : "");
        if (r.alarm && !alarmed) {
          alarmed = true;
          std::printf("      ^^^ SYN flooding sources inside this stub "
                      "network\n");
        }
      });
  MixSink mix;
  engine.add_sink(demux);
  engine.add_sink(mix);
  std::printf("%s: %s stream\n", path.c_str(),
              engine.format() == ingest::CaptureFormat::kPcapng
                  ? "pcapng"
                  : "pcap");

  std::printf("\n  n   SYN  SYN/ACK     Xn      yn\n");
  const ingest::PipelineStats& stats = engine.run();
  demux.close_final_period();
  if (stats.truncated) {
    std::fprintf(stderr, "warning: capture ends mid-record\n");
  }

  std::printf("\ntraffic mix: ");
  for (std::size_t k = 0; k < classify::kSegmentKindCount; ++k) {
    std::printf("%s=%llu ",
                std::string(classify::to_string(
                    static_cast<classify::SegmentKind>(k))).c_str(),
                static_cast<unsigned long long>(mix.mix().counts[k]));
  }
  std::printf("\n%llu records; detector %s\n",
              static_cast<unsigned long long>(stats.records),
              alarmed ? "ALARMED" : "saw nothing suspicious");
  return 0;
}

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : generate_demo_capture();
  try {
    return analyze(path);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
}
