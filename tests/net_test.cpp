#include <gtest/gtest.h>

#include "syndog/net/address.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/net/wire.hpp"

namespace syndog::net {
namespace {

// --- addresses --------------------------------------------------------------

TEST(MacAddressTest, ParseAndFormatRoundTrip) {
  const auto mac = MacAddress::parse("02:00:00:00:00:2a");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "02:00:00:00:00:2a");
  EXPECT_EQ(*mac, MacAddress::for_host(42));
}

TEST(MacAddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::parse("").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:00:00:00").has_value());
  EXPECT_FALSE(MacAddress::parse("02-00-00-00-00-2a").has_value());
  EXPECT_FALSE(MacAddress::parse("0g:00:00:00:00:2a").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:00:00:00:2a:ff").has_value());
}

TEST(MacAddressTest, Broadcast) {
  EXPECT_TRUE(MacAddress::parse("ff:ff:ff:ff:ff:ff")->is_broadcast());
  EXPECT_FALSE(MacAddress::for_host(1).is_broadcast());
}

TEST(Ipv4AddressTest, ParseAndFormat) {
  const auto addr = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0x0a010203u);
  EXPECT_EQ(addr->to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address(255, 255, 255, 255).to_string(), "255.255.255.255");
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  for (const char* bad : {"", "10.1.2", "10.1.2.3.4", "10.1.2.256",
                          "10..2.3", "10.1.2.3.", "a.b.c.d", " 10.1.2.3"}) {
    EXPECT_FALSE(Ipv4Address::parse(bad).has_value()) << bad;
  }
}

TEST(Ipv4PrefixTest, ContainsAndCanonicalization) {
  const auto p = Ipv4Prefix::parse("10.1.77.88/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base().to_string(), "10.1.0.0");  // host bits cleared
  EXPECT_TRUE(p->contains(*Ipv4Address::parse("10.1.255.255")));
  EXPECT_FALSE(p->contains(*Ipv4Address::parse("10.2.0.0")));
  EXPECT_EQ(p->size(), 65536u);
  EXPECT_EQ(p->host(258).to_string(), "10.1.1.2");
  EXPECT_EQ(p->to_string(), "10.1.0.0/16");
}

TEST(Ipv4PrefixTest, EdgeLengths) {
  const Ipv4Prefix all(*Ipv4Address::parse("1.2.3.4"), 0);
  EXPECT_TRUE(all.contains(*Ipv4Address::parse("255.0.0.1")));
  const Ipv4Prefix host(*Ipv4Address::parse("1.2.3.4"), 32);
  EXPECT_TRUE(host.contains(*Ipv4Address::parse("1.2.3.4")));
  EXPECT_FALSE(host.contains(*Ipv4Address::parse("1.2.3.5")));
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
  EXPECT_EQ(host.size(), 1u);
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").has_value());
}

// --- checksums --------------------------------------------------------------

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5,
                               0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0xffff - 0xddf2 + 1 - 1);  // 0x220d
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(ChecksumTest, OddLengthPads) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  // sum = 0x1234 + 0x5600 = 0x6834 -> ~ = 0x97cb
  EXPECT_EQ(internet_checksum(data), 0x97cb);
}

TEST(ChecksumTest, WrittenIpv4HeaderVerifies) {
  Ipv4Header ip;
  ip.total_length = 40;
  ip.src = Ipv4Address(10, 0, 0, 1);
  ip.dst = Ipv4Address(10, 0, 0, 2);
  ByteBuffer out;
  write_ipv4(out, ip);
  // The sum over the header, stored checksum included, folds to zero.
  ASSERT_EQ(ipv4_header_bytes(out), out.size());
  EXPECT_EQ(internet_checksum(out), 0);
  out[8] ^= 0xff;  // corrupt TTL
  EXPECT_NE(internet_checksum(out), 0);
}

// --- header round trips ------------------------------------------------------

TEST(WireTest, TcpHeaderRoundTrip) {
  TcpHeader tcp;
  tcp.src_port = 12345;
  tcp.dst_port = 80;
  tcp.seq = 0xdeadbeef;
  tcp.ack = 0x01020304;
  tcp.flags = TcpFlags::syn_ack();
  tcp.window = 4096;
  tcp.checksum = 0xabcd;
  tcp.urgent_pointer = 7;
  ByteBuffer out;
  write_tcp(out, tcp);
  ASSERT_EQ(tcp_header_bytes(out), TcpHeader::kMinSize);
  const TcpHeader parsed = read_tcp(out);
  EXPECT_EQ(parsed.src_port, tcp.src_port);
  EXPECT_EQ(parsed.dst_port, tcp.dst_port);
  EXPECT_EQ(parsed.seq, tcp.seq);
  EXPECT_EQ(parsed.ack, tcp.ack);
  EXPECT_EQ(parsed.flags, tcp.flags);
  EXPECT_EQ(parsed.window, tcp.window);
  EXPECT_EQ(parsed.checksum, tcp.checksum);
  EXPECT_EQ(parsed.urgent_pointer, tcp.urgent_pointer);
}

TEST(WireTest, ParseTcpRejectsTruncation) {
  TcpHeader tcp;
  ByteBuffer out;
  write_tcp(out, tcp);
  for (std::size_t len = 0; len < TcpHeader::kMinSize; ++len) {
    EXPECT_EQ(tcp_header_bytes(ByteSpan{out.data(), len}), 0u);
  }
}

TEST(WireTest, ParseIpv4RejectsBadVersionAndLengths) {
  Ipv4Header ip;
  ip.total_length = 20;
  ByteBuffer out;
  write_ipv4(out, ip);
  ByteBuffer v6 = out;
  v6[0] = (6 << 4) | 5;
  EXPECT_EQ(ipv4_header_bytes(v6), 0u);
  ByteBuffer short_ihl = out;
  short_ihl[0] = (4 << 4) | 4;  // IHL < 5
  EXPECT_EQ(ipv4_header_bytes(short_ihl), 0u);
  ByteBuffer bad_total = out;
  bad_total[2] = 0;
  bad_total[3] = 10;  // total_length < header
  EXPECT_EQ(ipv4_header_bytes(bad_total), 0u);
}

TEST(TcpFlagsTest, NamedSetsAndToString) {
  EXPECT_TRUE(TcpFlags::syn_only().syn());
  EXPECT_FALSE(TcpFlags::syn_only().ack());
  EXPECT_TRUE(TcpFlags::syn_ack().syn());
  EXPECT_TRUE(TcpFlags::syn_ack().ack());
  EXPECT_EQ(TcpFlags::syn_ack().to_string(), "SYN|ACK");
  EXPECT_EQ(TcpFlags{}.to_string(), "none");
}

// --- whole frames --------------------------------------------------------------

TcpPacketSpec sample_spec() {
  TcpPacketSpec spec;
  spec.src_mac = MacAddress::for_host(3);
  spec.dst_mac = MacAddress::for_host(0xffffff);
  spec.src_ip = Ipv4Address(10, 1, 0, 3);
  spec.dst_ip = Ipv4Address(192, 0, 2, 1);
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.seq = 1000;
  return spec;
}

TEST(PacketTest, SynFactoryProducesPureSyn) {
  const Packet syn = make_syn(sample_spec());
  EXPECT_TRUE(syn.is_syn());
  EXPECT_FALSE(syn.is_syn_ack());
  EXPECT_EQ(syn.ip.total_length, 40);
  EXPECT_EQ(syn.frame_bytes(), 54u);
}

TEST(PacketTest, EncodeDecodeRoundTrip) {
  TcpPacketSpec spec = sample_spec();
  spec.payload_bytes = 100;
  spec.flags = TcpFlags{TcpFlags::kPsh | TcpFlags::kAck};
  const Packet pkt = make_tcp_packet(spec);
  const ByteBuffer wire = encode_frame(pkt);
  EXPECT_EQ(wire.size(), pkt.frame_bytes());

  Packet decoded;
  ASSERT_TRUE(decode_frame_into(wire, decoded));
  EXPECT_EQ(decoded.eth.src, spec.src_mac);
  EXPECT_EQ(decoded.eth.dst, spec.dst_mac);
  EXPECT_EQ(decoded.ip.src, spec.src_ip);
  EXPECT_EQ(decoded.ip.dst, spec.dst_ip);
  ASSERT_TRUE(decoded.tcp.has_value());
  EXPECT_EQ(decoded.tcp->src_port, spec.src_port);
  EXPECT_EQ(decoded.tcp->flags, spec.flags);
  EXPECT_EQ(decoded.payload_bytes, 100u);
}

TEST(PacketTest, EncodedTcpChecksumValidates) {
  const Packet pkt = make_syn(sample_spec());
  const ByteBuffer wire = encode_frame(pkt);
  // Recompute the transport checksum over the TCP segment; a correct
  // checksum makes the folded sum zero.
  const ByteSpan segment{wire.data() + 14 + 20, wire.size() - 34};
  EXPECT_EQ(transport_checksum(pkt.ip.src, pkt.ip.dst, IpProtocol::kTcp,
                               segment),
            0x0000);
}

TEST(PacketTest, UdpRoundTrip) {
  const Packet udp = make_udp_packet(
      MacAddress::for_host(1), MacAddress::for_host(2),
      Ipv4Address(10, 1, 0, 1), Ipv4Address(10, 1, 0, 2), 5000, 53, 64);
  const ByteBuffer wire = encode_frame(udp);
  Packet decoded;
  ASSERT_TRUE(decode_frame_into(wire, decoded));
  ASSERT_TRUE(decoded.udp.has_value());
  EXPECT_EQ(decoded.udp->dst_port, 53);
  EXPECT_EQ(decoded.payload_bytes, 64u);
  EXPECT_FALSE(decoded.is_tcp());
}

TEST(PacketTest, DecodeRejectsNonIpv4AndTruncation) {
  const Packet pkt = make_syn(sample_spec());
  ByteBuffer wire = encode_frame(pkt);
  ByteBuffer arp = wire;
  arp[12] = 0x08;
  arp[13] = 0x06;  // EtherType ARP
  Packet out;
  EXPECT_FALSE(decode_frame_into(arp, out));
  EXPECT_FALSE(decode_frame_into(ByteSpan{wire.data(), 10}, out));
  EXPECT_FALSE(decode_frame_into(ByteSpan{wire.data(), 30}, out));
}

TEST(PacketTest, FragmentedPacketKeepsNoTransportHeader) {
  Packet pkt = make_syn(sample_spec());
  pkt.ip.frag_flags_offset = 185;  // nonzero fragment offset
  const ByteBuffer wire = encode_frame(pkt);
  Packet decoded;
  ASSERT_TRUE(decode_frame_into(wire, decoded));
  EXPECT_FALSE(decoded.tcp.has_value());  // not first fragment
}

}  // namespace
}  // namespace syndog::net
