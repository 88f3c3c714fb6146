// Coverage for the smaller utility surfaces: ICMP round trips,
// inbound-direction trace rendering, and the presentation helpers'
// numeric paths.
#include <gtest/gtest.h>

#include "syndog/net/packet.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"
#include "syndog/util/table.hpp"

namespace syndog {
namespace {

// --- ICMP ---------------------------------------------------------------------

TEST(IcmpTest, HeaderRoundTrip) {
  net::IcmpHeader icmp;
  icmp.type = net::IcmpHeader::kDestUnreachable;
  icmp.code = 1;  // host unreachable
  icmp.rest = 0xdeadbeef;
  net::ByteBuffer out;
  net::write_icmp(out, icmp);
  ASSERT_EQ(net::icmp_header_bytes(out), net::IcmpHeader::kSize);
  const net::IcmpHeader parsed = net::read_icmp(out);
  EXPECT_EQ(parsed.type, icmp.type);
  EXPECT_EQ(parsed.code, icmp.code);
  EXPECT_EQ(parsed.rest, icmp.rest);
  EXPECT_EQ(net::icmp_header_bytes(net::ByteSpan{out.data(), 7}), 0u);
}

TEST(IcmpTest, FullFrameRoundTripWithChecksum) {
  net::Packet pkt;
  pkt.eth.src = net::MacAddress::for_host(1);
  pkt.eth.dst = net::MacAddress::for_host(2);
  pkt.ip.src = net::Ipv4Address(10, 1, 0, 1);
  pkt.ip.dst = net::Ipv4Address(192, 0, 2, 1);
  pkt.ip.protocol = static_cast<std::uint8_t>(net::IpProtocol::kIcmp);
  net::IcmpHeader icmp;
  icmp.type = net::IcmpHeader::kEchoRequest;
  icmp.rest = (0x1234u << 16) | 1;  // id/seq
  pkt.icmp = icmp;
  pkt.payload_bytes = 32;
  pkt.ip.total_length = static_cast<std::uint16_t>(
      net::Ipv4Header::kMinSize + net::IcmpHeader::kSize + 32);

  const net::ByteBuffer wire = net::encode_frame(pkt);
  net::Packet decoded;
  ASSERT_TRUE(net::decode_frame_into(wire, decoded));
  ASSERT_TRUE(decoded.icmp.has_value());
  EXPECT_EQ(decoded.icmp->type, net::IcmpHeader::kEchoRequest);
  EXPECT_EQ(decoded.payload_bytes, 32u);
  // The ICMP checksum over the message (with stored checksum) folds to 0.
  const net::ByteSpan message{wire.data() + 34, wire.size() - 34};
  EXPECT_EQ(net::internet_checksum(message), 0);
}

// --- inbound rendering ------------------------------------------------------------

TEST(RenderTest, InboundConnectionsRenderMirrored) {
  trace::SiteSpec spec = trace::site_spec(trace::SiteId::kLbl);
  spec.outbound_rate = 0.001;  // effectively inbound-only
  spec.inbound_rate = 2.0;
  spec.duration = util::SimTime::minutes(5);
  const trace::ConnectionTrace tr = trace::generate_site_trace(spec, 5);
  trace::RenderConfig cfg;
  cfg.emit_final_ack = false;
  std::size_t inbound_syns = 0;
  std::size_t outbound_syn_acks = 0;
  for (const trace::TimedPacket& tp : trace::render_trace(tr, cfg)) {
    if (tp.packet.is_syn()) {
      // Inbound connection: client outside, server inside the stub.
      if (!cfg.stub_prefix.contains(tp.packet.ip.src) &&
          cfg.stub_prefix.contains(tp.packet.ip.dst)) {
        ++inbound_syns;
        EXPECT_EQ(tp.packet.eth.src, cfg.router_mac);
      }
    } else if (tp.packet.is_syn_ack()) {
      if (cfg.stub_prefix.contains(tp.packet.ip.src)) {
        ++outbound_syn_acks;
      }
    }
  }
  EXPECT_GT(inbound_syns, 100u);
  EXPECT_GT(outbound_syn_acks, 100u);
  EXPECT_LE(outbound_syn_acks, inbound_syns);
}

// --- presentation helpers -----------------------------------------------------------

TEST(PresentationTest, ChartAutoScalesAndClampsOutliers) {
  util::AsciiChartOptions opts;
  opts.width = 30;
  opts.height = 6;
  opts.y_max = 0.0;  // auto
  util::AsciiChart chart(opts);
  chart.add_series("spiky", {0.0, 0.1, 100.0, 0.1, 0.0});
  const std::string out = chart.to_string();
  // The peak value appears in the y-axis labels (auto-scaled above 100).
  EXPECT_NE(out.find("105"), std::string::npos);
  EXPECT_NE(out.find("spiky"), std::string::npos);
}

}  // namespace
}  // namespace syndog
