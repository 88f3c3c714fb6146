#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "syndog/classify/batch.hpp"
#include "syndog/classify/segment.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::classify {
namespace {

net::Packet tcp_with_flags(net::TcpFlags flags, std::size_t payload = 0) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(1);
  spec.dst_mac = net::MacAddress::for_host(2);
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);
  spec.src_port = 30000;
  spec.dst_port = 80;
  spec.flags = flags;
  spec.payload_bytes = payload;
  return net::make_tcp_packet(spec);
}

// --- flag classification -----------------------------------------------------

TEST(SegmentTest, FlagTaxonomy) {
  EXPECT_EQ(classify_flags(net::TcpFlags::syn_only()), SegmentKind::kSyn);
  EXPECT_EQ(classify_flags(net::TcpFlags::syn_ack()), SegmentKind::kSynAck);
  EXPECT_EQ(classify_flags(net::TcpFlags::rst_only()), SegmentKind::kRst);
  EXPECT_EQ(classify_flags(net::TcpFlags{
                static_cast<std::uint8_t>(net::TcpFlags::kRst | net::TcpFlags::kAck)}), SegmentKind::kRst);
  EXPECT_EQ(classify_flags(net::TcpFlags::fin_ack()), SegmentKind::kFin);
  EXPECT_EQ(classify_flags(net::TcpFlags::ack_only()),
            SegmentKind::kPureAck);
  EXPECT_EQ(classify_flags(net::TcpFlags{net::TcpFlags::kPsh |
                                         net::TcpFlags::kAck}),
            SegmentKind::kData);
}

TEST(SegmentTest, RstTakesPrecedenceOverFin) {
  // A RST|FIN segment resets; it must not be counted as teardown.
  EXPECT_EQ(classify_flags(net::TcpFlags{net::TcpFlags::kRst |
                                         net::TcpFlags::kFin}),
            SegmentKind::kRst);
}

TEST(SegmentTest, SynTakesPrecedence) {
  EXPECT_EQ(classify_flags(net::TcpFlags{net::TcpFlags::kSyn |
                                         net::TcpFlags::kUrg}),
            SegmentKind::kSyn);
}

TEST(SegmentTest, PacketClassificationUsesPayloadForAcks) {
  EXPECT_EQ(classify_packet(tcp_with_flags(net::TcpFlags::ack_only(), 0)),
            SegmentKind::kPureAck);
  EXPECT_EQ(classify_packet(tcp_with_flags(net::TcpFlags::ack_only(), 512)),
            SegmentKind::kData);
}

TEST(SegmentTest, NonFirstFragmentIsNotClassified) {
  // Paper §2: only packets with zero fragmentation offset carry the TCP
  // header, so only they can be classified by flags.
  net::Packet pkt = tcp_with_flags(net::TcpFlags::syn_only());
  pkt.ip.frag_flags_offset = 100;
  EXPECT_EQ(classify_packet(pkt), SegmentKind::kNotTcp);
}

TEST(SegmentTest, UdpIsNotTcp) {
  const net::Packet udp = net::make_udp_packet(
      net::MacAddress::for_host(1), net::MacAddress::for_host(2),
      net::Ipv4Address(10, 1, 0, 1), net::Ipv4Address(10, 1, 0, 2), 111,
      53, 32);
  EXPECT_EQ(classify_packet(udp), SegmentKind::kNotTcp);
}

// The fast frame path must agree with the decoded-packet path on every
// segment kind (property check over the full flag space).
TEST(SegmentTest, FrameFastAgreesWithPacketPathOnAllFlagCombos) {
  for (int bits = 0; bits < 64; ++bits) {
    for (const std::size_t payload : {std::size_t{0}, std::size_t{64}}) {
      const net::Packet pkt =
          tcp_with_flags(net::TcpFlags{static_cast<std::uint8_t>(bits)},
                         payload);
      const net::ByteBuffer frame = net::encode_frame(pkt);
      EXPECT_EQ(classify_frame_fast(frame), classify_packet(pkt))
          << "flags=" << bits << " payload=" << payload;
    }
  }
}

TEST(SegmentTest, FrameFastHandlesHostileInput) {
  // Truncated, wrong ethertype, non-TCP, fragmented: never crash, always
  // kNotTcp.
  const net::ByteBuffer frame =
      net::encode_frame(tcp_with_flags(net::TcpFlags::syn_only()));
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    (void)classify_frame_fast(net::ByteSpan{frame.data(), len});
  }
  for (std::size_t len = 0; len < 34; ++len) {
    EXPECT_EQ(classify_frame_fast(net::ByteSpan{frame.data(), len}),
              SegmentKind::kNotTcp);
  }
  net::ByteBuffer arp = frame;
  arp[13] = 0x06;
  EXPECT_EQ(classify_frame_fast(arp), SegmentKind::kNotTcp);
  net::ByteBuffer fragmented = frame;
  fragmented[20] = 0x00;
  fragmented[21] = 0x64;  // fragment offset 100
  EXPECT_EQ(classify_frame_fast(fragmented), SegmentKind::kNotTcp);
}

TEST(SegmentCountersTest, AccumulatesAndResets) {
  SegmentCounters counters;
  counters.add(SegmentKind::kSyn);
  counters.add(SegmentKind::kSyn);
  counters.add(SegmentKind::kSynAck);
  EXPECT_EQ(counters.syn(), 2u);
  EXPECT_EQ(counters.syn_ack(), 1u);
  EXPECT_EQ(counters.total(), 3u);
  SegmentCounters more;
  more.add(SegmentKind::kRst);
  counters += more;
  EXPECT_EQ(counters.count(SegmentKind::kRst), 1u);
  counters.reset();
  EXPECT_EQ(counters.total(), 0u);
}

// --- batched flag sweep ------------------------------------------------------

TEST(BatchSweepTest, AgreesWithPerFlagClassification) {
  // The sweep's two mask tests must reproduce classify_flags' kSyn /
  // kSynAck decisions for every six-bit flag byte and for the no-TCP
  // sentinel, so batch counting is a pure refactor of the §2 sniffers.
  util::Rng rng(101);
  for (int round = 0; round < 50; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<std::uint8_t> flags(n);
    FlagSweep expected;
    for (std::uint8_t& b : flags) {
      if (rng.uniform() < 0.1) {
        b = net::FlowDigest::kNoTcpFlags;  // counts as neither kind
        continue;
      }
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 63));
      const SegmentKind kind = classify_flags(net::TcpFlags{b});
      expected.syn += kind == SegmentKind::kSyn ? 1 : 0;
      expected.syn_ack += kind == SegmentKind::kSynAck ? 1 : 0;
    }
    EXPECT_EQ(sweep_flags_scalar(flags), expected) << "round " << round;
  }
}

TEST(BatchSweepTest, SimdKernelMatchesScalarOnRandomBuffers) {
  // Bit-for-bit equivalence of the dispatched kernel and the portable
  // loop, across sizes straddling the 16-byte vector width and across
  // arbitrary byte values (not just well-formed flag bytes).
  util::Rng rng(202);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    std::vector<std::uint8_t> flags(n);
    for (std::uint8_t& b : flags) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_EQ(sweep_flags(flags), sweep_flags_scalar(flags)) << "n=" << n;
  }
}

TEST(BatchSweepTest, KnownCountsEmptySpanAndVectorTails) {
  for (const std::size_t pad : {0u, 1u, 15u, 16u, 17u, 33u}) {
    std::vector<std::uint8_t> flags;
    flags.insert(flags.end(), 20, net::TcpFlags::kSyn);
    flags.insert(flags.end(), 7,
                 net::TcpFlags::kSyn | net::TcpFlags::kAck);
    flags.insert(flags.end(), 5, net::FlowDigest::kNoTcpFlags);
    flags.insert(flags.end(), pad, net::TcpFlags::kAck);  // pure ACKs
    const FlagSweep got = sweep_flags(flags);
    EXPECT_EQ(got.syn, 20u) << "pad " << pad;
    EXPECT_EQ(got.syn_ack, 7u) << "pad " << pad;
  }
  EXPECT_EQ(sweep_flags({}), (FlagSweep{}));
  EXPECT_EQ(sweep_flags_scalar({}), (FlagSweep{}));
}

}  // namespace
}  // namespace syndog::classify
