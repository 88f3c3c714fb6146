// Property tests for wire parsing under hostile framing.
//
// The paper's detector is only as good as its counting layer (§2): a parser
// that crashes or reads out of bounds on adversarial input corrupts the
// CUSUM's Δn. These tests drive every parser with seeded garbage, truncated
// prefixes of valid frames, deliberately misaligned buffers, and bit-flipped
// capture and telemetry files. The invariant everywhere: return nullopt /
// set truncated / throw std::runtime_error — never crash. Run under
// ASan+UBSan (`ctest --preset asan-ubsan`) these become memory-safety
// proofs.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "syndog/classify/segment.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/net/wire.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"
#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/rng.hpp"

namespace syndog {
namespace {

constexpr std::uint64_t kSeed = 0x5d0e57ab1e5eedULL;
constexpr int kTrials = 500;

net::ByteBuffer random_bytes(util::Rng& rng, std::size_t size) {
  net::ByteBuffer buf(size);
  for (auto& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return buf;
}

net::ByteBuffer sample_frame(util::Rng& rng) {
  net::TcpPacketSpec spec;
  const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 250));
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  spec.dst_port = 80;
  return net::encode_frame(net::make_syn(spec));
}

/// Exercises every header parser on one buffer; the assertions are the
/// internal-consistency invariants, the real check is ASan/UBSan silence.
void parse_all(net::ByteSpan bytes) {
  if (bytes.size() >= net::EthernetHeader::kSize) {
    (void)net::read_ethernet(bytes);
  }
  if (const std::size_t header = net::ipv4_header_bytes(bytes)) {
    const net::Ipv4Header ip = net::read_ipv4(bytes);
    ASSERT_GE(bytes.size(), ip.header_bytes());
    ASSERT_EQ(ip.version, 4u);
    (void)net::internet_checksum(bytes.first(header));
  }
  if (net::tcp_header_bytes(bytes) != 0) {
    ASSERT_GE(bytes.size(), net::read_tcp(bytes).header_bytes());
  }
  if (net::udp_header_bytes(bytes) != 0) {
    ASSERT_GE(net::read_udp(bytes).length, net::UdpHeader::kSize);
  }
  if (net::icmp_header_bytes(bytes) != 0) (void)net::read_icmp(bytes);
  net::Packet packet;
  (void)net::decode_frame_into(bytes, packet);
}

TEST(WireFuzzTest, GarbageBuffersNeverCrashHeaderParsers) {
  util::Rng rng(kSeed);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 128));
    const net::ByteBuffer buf = random_bytes(rng, size);
    parse_all(net::ByteSpan{buf.data(), buf.size()});
  }
}

TEST(WireFuzzTest, TruncatedValidFramesNeverCrash) {
  util::Rng rng(util::splitmix64(kSeed));
  for (int trial = 0; trial < kTrials; ++trial) {
    const net::ByteBuffer frame = sample_frame(rng);
    const auto cut =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(frame.size())));
    parse_all(net::ByteSpan{frame.data(), cut});
  }
}

TEST(WireFuzzTest, MisalignedBuffersAreSafe) {
  util::Rng rng(kSeed + 1);
  for (int trial = 0; trial < kTrials; ++trial) {
    const net::ByteBuffer frame = sample_frame(rng);
    // Copy the frame to every odd offset inside an oversized arena so the
    // parsers see 2- and 4-byte fields at misaligned addresses; the
    // memcpy-based safe readers must be exact regardless.
    net::ByteBuffer arena(frame.size() + 8, 0);
    const auto offset = static_cast<std::size_t>(rng.uniform_int(1, 7));
    std::memcpy(arena.data() + offset, frame.data(), frame.size());
    const net::ByteSpan view{arena.data() + offset, frame.size()};
    parse_all(view);
    net::Packet aligned;
    net::Packet shifted;
    ASSERT_TRUE(net::decode_frame_into(
        net::ByteSpan{frame.data(), frame.size()}, aligned));
    ASSERT_TRUE(net::decode_frame_into(view, shifted));
    EXPECT_EQ(aligned.ip.src.value(), shifted.ip.src.value());
    EXPECT_EQ(aligned.tcp->seq, shifted.tcp->seq);
  }
}

TEST(WireFuzzTest, BitFlippedFrameFieldsStayInBounds) {
  util::Rng rng(kSeed + 2);
  for (int trial = 0; trial < kTrials; ++trial) {
    net::ByteBuffer frame = sample_frame(rng);
    // Flip 1-8 random bits; length/offset fields now lie about the buffer.
    const auto flips = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    parse_all(net::ByteSpan{frame.data(), frame.size()});
  }
}

/// net::extract_flow_digest is the sharded datapath's cut-down twin of
/// net::decode_frame_into: both must take the same accept/reject decision
/// on `frame` and, when both accept, agree on every field the digest
/// carries.
void expect_digest_matches_decode(net::ByteSpan frame) {
  net::Packet packet;
  net::FlowDigest digest;
  const bool decoded = net::decode_frame_into(frame, packet);
  const bool digested = net::extract_flow_digest(frame, digest);
  ASSERT_EQ(decoded, digested) << "frame of " << frame.size() << " bytes";
  if (!decoded) return;
  EXPECT_EQ(digest.src, packet.ip.src.value());
  EXPECT_EQ(digest.dst, packet.ip.dst.value());
  EXPECT_EQ(digest.protocol, packet.ip.protocol);
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  if (packet.tcp) {
    src_port = packet.tcp->src_port;
    dst_port = packet.tcp->dst_port;
  } else if (packet.udp) {
    src_port = packet.udp->src_port;
    dst_port = packet.udp->dst_port;
  }
  EXPECT_EQ(digest.src_port, src_port);
  EXPECT_EQ(digest.dst_port, dst_port);
  EXPECT_EQ(digest.flags, packet.tcp ? packet.tcp->flags.bits
                                     : net::FlowDigest::kNoTcpFlags);
  EXPECT_EQ(digest.captured_bytes, frame.size());
}

TEST(WireFuzzTest, FlowDigestAgreesWithFullDecode) {
  util::Rng rng(kSeed + 7);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Garbage; every other buffer carries the IPv4 ethertype so the
    // IPv4 and transport checks see garbage too.
    net::ByteBuffer garbage = random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 128)));
    if (trial % 2 == 0 && garbage.size() >= net::EthernetHeader::kSize) {
      garbage[12] = 0x08;
      garbage[13] = 0x00;
    }
    expect_digest_matches_decode(garbage);

    const net::ByteBuffer frame = sample_frame(rng);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size())));
    expect_digest_matches_decode(net::ByteSpan{frame.data(), cut});

    net::ByteBuffer flipped = sample_frame(rng);
    const auto flips = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(flipped.size()) - 1));
      flipped[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    expect_digest_matches_decode(flipped);
  }
}

/// classify::classify_frame_fast reads the frames the decoders accept and
/// no others: kNotTcp for a frame decode_frame_into refuses, otherwise the
/// kind classify_packet gives the decoded packet.
void expect_frame_fast_matches_decode(net::ByteSpan frame) {
  net::Packet packet;
  const classify::SegmentKind expected =
      net::decode_frame_into(frame, packet)
          ? classify::classify_packet(packet)
          : classify::SegmentKind::kNotTcp;
  EXPECT_EQ(classify::classify_frame_fast(frame), expected)
      << "frame of " << frame.size() << " bytes";
}

TEST(WireFuzzTest, FrameFastAgreesWithFullDecode) {
  // The same garbage, cut and bit-flipped frames as the digest case.
  util::Rng rng(kSeed + 7);
  for (int trial = 0; trial < kTrials; ++trial) {
    net::ByteBuffer garbage = random_bytes(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 128)));
    if (trial % 2 == 0 && garbage.size() >= net::EthernetHeader::kSize) {
      garbage[12] = 0x08;
      garbage[13] = 0x00;
    }
    expect_frame_fast_matches_decode(garbage);

    const net::ByteBuffer frame = sample_frame(rng);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size())));
    expect_frame_fast_matches_decode(net::ByteSpan{frame.data(), cut});

    net::ByteBuffer flipped = sample_frame(rng);
    const auto flips = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(flipped.size()) - 1));
      flipped[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    expect_frame_fast_matches_decode(flipped);
  }
}

template <typename ReaderT>
void drain_reader(std::istream& in) {
  try {
    ReaderT reader(in);
    while (reader.next()) {
    }
  } catch (const std::runtime_error&) {
    // Malformed input is allowed to throw; it must not crash.
  }
}

TEST(WireFuzzTest, PcapReaderSurvivesGarbageStreams) {
  util::Rng rng(kSeed + 3);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 512));
    const net::ByteBuffer buf = random_bytes(rng, size);
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(buf.data()), buf.size()));
    drain_reader<pcap::Reader>(stream);
  }
}

TEST(WireFuzzTest, PcapngReaderSurvivesGarbageStreams) {
  util::Rng rng(kSeed + 4);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 512));
    net::ByteBuffer buf = random_bytes(rng, size);
    // Half the trials start with a plausible SHB type so the reader gets
    // past the magic check and into block parsing.
    if (trial % 2 == 0 && buf.size() >= 4) {
      buf[0] = 0x0a;
      buf[1] = 0x0d;
      buf[2] = 0x0d;
      buf[3] = 0x0a;
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(buf.data()), buf.size()));
    drain_reader<pcap::PcapngReader>(stream);
  }
}

std::string valid_capture(util::Rng& rng, bool pcapng) {
  std::stringstream out;
  if (pcapng) {
    pcap::PcapngWriter writer(out);
    for (int i = 0; i < 4; ++i) {
      writer.write(util::SimTime::from_seconds(0.1 * (i + 1)),
                   sample_frame(rng));
    }
  } else {
    pcap::Writer writer(out);
    for (int i = 0; i < 4; ++i) {
      writer.write(util::SimTime::from_seconds(0.1 * (i + 1)),
                   sample_frame(rng));
    }
  }
  return out.str();
}

TEST(WireFuzzTest, CorruptedCaptureFilesNeverCrashSniffer) {
  util::Rng rng(kSeed + 5);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string file = valid_capture(rng, trial % 2 == 0);
    // Corrupt: truncate to a random prefix, then flip a few random bytes.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(file.size())));
    file.resize(cut);
    for (std::int64_t i = 0; i < rng.uniform_int(0, 4) && !file.empty(); ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(file.size()) - 1));
      file[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    std::stringstream stream(file);
    try {
      ingest::CaptureSource source(stream);
      pcap::Record rec;
      while (source.next(rec)) {
      }
    } catch (const std::runtime_error&) {
      // Malformed input is allowed to throw; it must not crash.
    }
  }
}

/// A small syndog-tsf/1 file: two agents by two metrics, uneven series,
/// `block_capacity` samples per block. Sets `written` to its sample count.
std::string tsf_file(std::size_t block_capacity, std::uint64_t& written) {
  std::ostringstream out;
  telemetry::TsfWriter writer(out, block_capacity);
  const std::uint32_t k = writer.add_metric("k");
  const std::uint32_t alarm = writer.add_metric("alarm");
  std::vector<std::uint32_t> series;
  for (std::uint32_t a = 0; a < 2; ++a) {
    const std::uint32_t agent =
        writer.add_agent("stub-" + std::to_string(a), 64512 + a);
    series.push_back(writer.open_series(agent, k));
    series.push_back(writer.open_series(agent, alarm));
  }
  for (int period = 1; period <= 12; ++period) {
    for (const std::uint32_t s : series) {
      if ((period + static_cast<int>(s)) % 3 == 0) continue;
      writer.append(s, util::SimTime::seconds(20 * period), 0.5 * period + s);
    }
  }
  writer.finish();
  written = writer.samples_written();
  return out.str();
}

TEST(WireFuzzTest, TsfReaderSurvivesCutsAndBitFlips) {
  // Damage past the 16-byte header must never make the reader throw, and
  // no damage can conjure samples that were never written.
  std::vector<std::string> files;
  std::vector<std::uint64_t> written(4);
  for (std::size_t i = 0; i < written.size(); ++i) {
    files.push_back(tsf_file(std::size_t{1} << i, written[i]));
  }
  util::Rng rng(kSeed + 8);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 3));
    std::string file = files[pick];
    const int damage = trial % 3;  // 0: cut, 1: flip, 2: cut and flip
    if (damage != 1) {
      file.resize(static_cast<std::size_t>(
          rng.uniform_int(16, static_cast<std::int64_t>(file.size()))));
    }
    if (damage != 0 && file.size() > 16) {
      const auto flips = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            16, static_cast<std::int64_t>(file.size()) - 1));
        file[at] = static_cast<char>(
            file[at] ^ static_cast<char>(1u << rng.uniform_int(0, 7)));
      }
    }
    std::istringstream in(file);
    std::optional<telemetry::TsfReader> reader;
    ASSERT_NO_THROW(reader.emplace(in)) << "trial " << trial;
    EXPECT_LE(reader->total_samples(), written[pick]) << "trial " << trial;
  }
}

TEST(WireFuzzTest, SafeLoadsMatchReferenceAtEveryOffset) {
  util::Rng rng(kSeed + 6);
  net::ByteBuffer buf = random_bytes(rng, 64);
  for (std::size_t at = 0; at + 8 <= buf.size(); ++at) {
    const std::uint8_t* p = buf.data() + at;
    EXPECT_EQ(net::load_be16(p),
              static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]));
    EXPECT_EQ(net::load_be32(p), (std::uint32_t{p[0]} << 24) |
                                     (std::uint32_t{p[1]} << 16) |
                                     (std::uint32_t{p[2]} << 8) | p[3]);
    EXPECT_EQ(net::load_le16(p),
              static_cast<std::uint16_t>(std::uint16_t{p[0]} |
                                         (std::uint16_t{p[1]} << 8)));
    EXPECT_EQ(net::load_le32(p),
              std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                  (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24));
  }
  EXPECT_EQ(net::byteswap16(0x1234u), 0x3412u);
  EXPECT_EQ(net::byteswap32(0x12345678u), 0x78563412u);
}

}  // namespace
}  // namespace syndog
