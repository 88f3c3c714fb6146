#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcapng.hpp"

namespace syndog::pcap {
namespace {

net::ByteBuffer sample_frame(std::uint32_t host) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(40000 + host);
  spec.dst_port = 80;
  return net::encode_frame(net::make_syn(spec));
}

TEST(PcapngTest, RoundTripWithNanosecondTimestamps) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  const net::ByteBuffer f1 = sample_frame(1);
  const net::ByteBuffer f2 = sample_frame(2);
  writer.write(util::SimTime::nanoseconds(123456789), f1);
  writer.write(util::SimTime::seconds(5), f2);
  EXPECT_EQ(writer.records_written(), 2u);

  PcapngReader reader(buf);
  const auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->timestamp.ns(), 123456789);
  EXPECT_EQ(r1->data, f1);
  EXPECT_EQ(r1->orig_len, f1.size());
  EXPECT_EQ(reader.last_link_type(), LinkType::kEthernet);

  const auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->timestamp, util::SimTime::seconds(5));

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(PcapngTest, SnaplenTruncation) {
  std::stringstream buf;
  PcapngWriter writer(buf, LinkType::kEthernet, /*snaplen=*/32);
  const net::ByteBuffer frame = sample_frame(1);
  writer.write(util::SimTime::zero(), frame);
  PcapngReader reader(buf);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data.size(), 32u);
  EXPECT_EQ(rec->orig_len, frame.size());
}

TEST(PcapngTest, SkipsUnknownBlocks) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  // Splice a custom block (type 0x0BAD, minimal 12+4 bytes) between
  // records; readers must skip it.
  std::string custom;
  const auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) custom.push_back(static_cast<char>(v >> (8 * i)));
  };
  le32(0x0bad);
  le32(16);
  le32(0xdeadbeef);
  le32(16);
  buf << custom;
  writer.write(util::SimTime::seconds(2), sample_frame(2));

  PcapngReader reader(buf);
  EXPECT_TRUE(reader.next().has_value());
  const auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->timestamp, util::SimTime::seconds(2));
}

TEST(PcapngTest, ReadsByteSwappedSections) {
  // Hand-build a big-endian section: SHB + IDB (microsecond default) +
  // one EPB.
  std::string raw;
  const auto be16 = [&](std::uint16_t v) {
    raw.push_back(static_cast<char>(v >> 8));
    raw.push_back(static_cast<char>(v));
  };
  const auto be32 = [&](std::uint32_t v) {
    for (int i = 3; i >= 0; --i) raw.push_back(static_cast<char>(v >> (8 * i)));
  };
  // SHB: type, len=28, magic, ver 1.0, section len -1, len.
  be32(0x0a0d0d0a);
  be32(28);
  be32(0x1a2b3c4d);
  be16(1);
  be16(0);
  be32(0xffffffff);
  be32(0xffffffff);
  be32(28);
  // IDB: type=1, len=20, linktype=1, reserved, snaplen, len.
  be32(1);
  be32(20);
  be16(1);
  be16(0);
  be32(65535);
  be32(20);
  // EPB: total = 12 framing + 20 header + 4 data = 36; ts=1.5s in us.
  const std::uint64_t ticks = 1'500'000;
  be32(6);
  be32(36);
  be32(0);
  be32(static_cast<std::uint32_t>(ticks >> 32));
  be32(static_cast<std::uint32_t>(ticks));
  be32(4);
  be32(4);
  raw += "\x01\x02\x03\x04";
  be32(36);

  std::stringstream buf(raw);
  PcapngReader reader(buf);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  // Default resolution without if_tsresol is microseconds.
  EXPECT_EQ(rec->timestamp, util::SimTime::from_seconds(1.5));
  ASSERT_EQ(rec->data.size(), 4u);
  EXPECT_EQ(rec->data[0], 0x01);
}

TEST(PcapngTest, TruncatedStreamsReportTruncation) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  const std::string full = buf.str();
  for (const std::size_t cut : {full.size() - 3, full.size() / 2}) {
    std::stringstream damaged(full.substr(0, cut));
    PcapngReader reader(damaged);
    while (reader.next().has_value()) {
    }
    EXPECT_TRUE(reader.truncated()) << "cut at " << cut;
  }
}

TEST(PcapngTest, RejectsGarbageMagic) {
  std::stringstream junk("this is not a capture file, honest");
  PcapngReader reader(junk);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST(PcapngTest, EndStateDistinguishesEofFromTruncation) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  const std::string full = buf.str();
  {
    std::stringstream clean(full);
    PcapngReader reader(clean);
    EXPECT_EQ(reader.end_state(), ReadEnd::kStreaming);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
    // Terminal: repeated calls do not flip the state.
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
  }
  {
    // Cut inside the 8-byte block header of the EPB.
    std::stringstream damaged(full.substr(0, full.size() -
                                                 sample_frame(1).size() -
                                                 20 - 12 + 5));
    PcapngReader reader(damaged);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.end_state(), ReadEnd::kTruncated);
  }
}

TEST(PcapngTest, NextIntoStreamsWithoutReallocation) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  for (int i = 1; i <= 4; ++i) {
    writer.write(util::SimTime::seconds(i),
                 sample_frame(static_cast<std::uint32_t>(i)));
  }
  PcapngReader reader(buf);
  Record rec;
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data, sample_frame(1));
  const auto* before = rec.data.data();
  for (std::uint32_t i = 2; i <= 4; ++i) {
    ASSERT_TRUE(reader.next_into(rec));
    EXPECT_EQ(rec.data, sample_frame(i));
    EXPECT_EQ(rec.data.data(), before);  // equal-size records: no realloc
  }
  EXPECT_FALSE(reader.next_into(rec));
  EXPECT_EQ(reader.records_read(), 4u);
}

/// A capture whose interface declares if_tsresol `tsresol` in place of
/// the writer's 9 (ns), so each record's ticks are read at that
/// resolution: one record at `ticks`, then one per `more_ticks`.
std::string capture_with_tsresol(
    std::uint8_t tsresol, std::int64_t ticks,
    std::initializer_list<std::int64_t> more_ticks = {}) {
  std::stringstream buf;
  PcapngWriter writer(buf);
  writer.write(util::SimTime::nanoseconds(ticks), sample_frame(1));
  for (const std::int64_t t : more_ticks) {
    writer.write(util::SimTime::nanoseconds(t), sample_frame(2));
  }
  std::string file = buf.str();
  // The 28-byte SHB, then the IDB: block type and length, link type,
  // reserved and snaplen, the option's code and length, then its value.
  constexpr std::size_t kTsResolAt = 28 + 8 + 8 + 4;
  EXPECT_EQ(file[kTsResolAt], 9);
  file[kTsResolAt] = static_cast<char>(tsresol);
  return file;
}

/// The first record's timestamp in ns, or -1 when there is none.
std::int64_t first_timestamp_ns(const std::string& file) {
  std::stringstream in(file);
  PcapngReader reader(in);
  const auto rec = reader.next();
  return rec ? rec->timestamp.ns() : -1;
}

TEST(PcapngTest, RejectsDecimalTsResolPastSixtyFourBits) {
  // 10^64 ticks per second wrapped to 0, and the reader divided by it.
  std::stringstream in(capture_with_tsresol(0x40, 1));
  PcapngReader reader(in);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  // 10^19 still fits.
  EXPECT_EQ(first_timestamp_ns(capture_with_tsresol(19, 1)), 0);
}

TEST(PcapngTest, RejectsBinaryTsResolPastSixtyFourBits) {
  // 2^64 ticks per second shifted a 64-bit 1 by its full width.
  std::stringstream in(capture_with_tsresol(0xc0, 1));
  PcapngReader reader(in);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  // 2^63 still fits: 2^62 ticks are half a second.
  EXPECT_EQ(
      first_timestamp_ns(capture_with_tsresol(0xbf, std::int64_t{1} << 62)),
      500'000'000);
}

TEST(PcapngTest, FineResolutionsKeepSubsecondPrecision) {
  // 10^-12 s: 3 s + 20 ms. Scaling the 2e10 sub-second ticks by 1e9
  // overflowed 64 bits and read as 1.55 ms.
  EXPECT_EQ(first_timestamp_ns(capture_with_tsresol(
                12, 3'000'000'000'000 + 20'000'000'000)),
            3'020'000'000);
  // 2^-40 s: 3.5 s.
  EXPECT_EQ(first_timestamp_ns(capture_with_tsresol(
                0x80 | 40, (std::int64_t{7} << 40) / 2)),
            3'500'000'000);
}

TEST(PcapngTest, SkipsTimestampPastInt64Nanoseconds) {
  // Whole-second ticks: 2^40 s is past int64 ns and read as
  // -7,293,016,646,573,096,960 ns. The record is refused like one on an
  // unknown interface, and the next one still reads.
  std::stringstream in(capture_with_tsresol(0, std::int64_t{1} << 40, {7}));
  PcapngReader reader(in);
  std::vector<Record> records;
  while (auto rec = reader.next()) records.push_back(std::move(*rec));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, util::SimTime::seconds(7));
  EXPECT_EQ(records[0].data, sample_frame(2));
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

/// Swallows writes but fails on sync (buffered disk-full stand-in).
class UnsyncableBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int sync() override { return -1; }
};

TEST(PcapngTest, FlushSurfacesSyncFailure) {
  UnsyncableBuf unsyncable;
  std::ostream out(&unsyncable);
  PcapngWriter writer(out);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  EXPECT_THROW(writer.flush(), std::runtime_error);
}

}  // namespace
}  // namespace syndog::pcap
