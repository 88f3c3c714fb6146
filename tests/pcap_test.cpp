#include <gtest/gtest.h>

#include "support/alloc_guard.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::pcap {
namespace {

net::ByteBuffer sample_frame(std::uint32_t host) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(30000 + host);
  spec.dst_port = 80;
  return net::encode_frame(net::make_syn(spec));
}

TEST(PcapTest, WriteReadRoundTripMicroseconds) {
  std::stringstream buf;
  Writer writer(buf);
  const net::ByteBuffer f1 = sample_frame(1);
  const net::ByteBuffer f2 = sample_frame(2);
  writer.write(util::SimTime::from_seconds(1.5), f1);
  writer.write(util::SimTime::from_seconds(2.000001), f2);
  EXPECT_EQ(writer.records_written(), 2u);

  Reader reader(buf);
  EXPECT_FALSE(reader.header().nanosecond);
  EXPECT_FALSE(reader.header().swapped);
  EXPECT_EQ(reader.header().link_type, LinkType::kEthernet);

  const auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->timestamp, util::SimTime::from_seconds(1.5));
  EXPECT_EQ(r1->data, f1);
  EXPECT_EQ(r1->orig_len, f1.size());

  const auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->timestamp.ns(), 2'000'001'000);  // 1 us resolution

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
}

TEST(PcapTest, NanosecondResolutionPreserved) {
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, /*nanosecond=*/true);
  writer.write(util::SimTime::nanoseconds(123456789), sample_frame(1));
  Reader reader(buf);
  EXPECT_TRUE(reader.header().nanosecond);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp.ns(), 123456789);
}

TEST(PcapTest, SnaplenTruncatesButKeepsOrigLen) {
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, false, /*snaplen=*/40);
  const net::ByteBuffer frame = sample_frame(1);
  ASSERT_GT(frame.size(), 40u);
  writer.write(util::SimTime::zero(), frame);
  Reader reader(buf);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data.size(), 40u);
  EXPECT_EQ(rec->orig_len, frame.size());
}

TEST(PcapTest, ReadsByteSwappedFiles) {
  // Hand-build a big-endian pcap file (as captured on a BE machine).
  std::string raw;
  const auto put_be32 = [&](std::uint32_t v) {
    raw.push_back(static_cast<char>(v >> 24));
    raw.push_back(static_cast<char>(v >> 16));
    raw.push_back(static_cast<char>(v >> 8));
    raw.push_back(static_cast<char>(v));
  };
  const auto put_be16 = [&](std::uint16_t v) {
    raw.push_back(static_cast<char>(v >> 8));
    raw.push_back(static_cast<char>(v));
  };
  put_be32(FileHeader::kMagicMicros);
  put_be16(2);
  put_be16(4);
  put_be32(0);
  put_be32(0);
  put_be32(65535);
  put_be32(1);  // Ethernet
  put_be32(10);  // ts sec
  put_be32(500000);  // ts usec
  put_be32(4);  // incl
  put_be32(4);  // orig
  raw += "\x01\x02\x03\x04";

  std::stringstream buf(raw);
  Reader reader(buf);
  EXPECT_TRUE(reader.header().swapped);
  EXPECT_EQ(reader.header().snaplen, 65535u);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp, util::SimTime::from_seconds(10.5));
  ASSERT_EQ(rec->data.size(), 4u);
  EXPECT_EQ(rec->data[0], 0x01);
}

TEST(PcapTest, RejectsBadMagicAndEmptyFile) {
  std::stringstream empty;
  EXPECT_THROW(Reader{empty}, std::runtime_error);
  std::stringstream junk("not a pcap file at all");
  EXPECT_THROW(Reader{junk}, std::runtime_error);
}

TEST(PcapTest, DetectsTruncatedRecord) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::zero(), sample_frame(1));
  std::string raw = buf.str();
  raw.resize(raw.size() - 5);  // chop the tail of the frame
  std::stringstream damaged(raw);
  Reader reader(damaged);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(PcapTest, NegativeTimestampRejected) {
  std::stringstream buf;
  Writer writer(buf);
  EXPECT_THROW(
      writer.write(util::SimTime::nanoseconds(-1), sample_frame(1)),
      std::runtime_error);
}

TEST(PcapTest, FileHelpersRoundTrip) {
  const std::string path = testing::TempDir() + "syndog_pcap_test.pcap";
  std::vector<Record> records;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    Record rec;
    rec.timestamp = util::SimTime::milliseconds(i * 10);
    rec.data = sample_frame(i);
    rec.orig_len = static_cast<std::uint32_t>(rec.data.size());
    records.push_back(std::move(rec));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    Writer writer(out);
    for (const Record& rec : records) writer.write(rec.timestamp, rec.data);
    writer.flush();
  }
  std::vector<Record> back;
  {
    std::ifstream in(path, std::ios::binary);
    Reader reader(in);
    while (auto rec = reader.next()) back.push_back(std::move(*rec));
  }
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].data, records[i].data);
  }
  // The frames inside the file decode back into the original packets.
  net::Packet decoded;
  ASSERT_TRUE(net::decode_frame_into(back[0].data, decoded));
  EXPECT_TRUE(decoded.is_syn());
  std::remove(path.c_str());
}

TEST(PcapTest, ReadAllDrainsEverything) {
  std::stringstream buf;
  Writer writer(buf);
  for (int i = 0; i < 10; ++i) {
    writer.write(util::SimTime::seconds(i), sample_frame(1));
  }
  Reader reader(buf);
  Record rec;
  std::size_t drained = 0;
  while (reader.next_into(rec)) ++drained;
  EXPECT_EQ(drained, 10u);
  EXPECT_EQ(reader.records_read(), 10u);
}

TEST(PcapTest, EndStateDistinguishesEofFromTruncation) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  Reader reader(buf);
  EXPECT_EQ(reader.end_state(), ReadEnd::kStreaming);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kStreaming);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
  EXPECT_FALSE(reader.truncated());
  // Terminal: further calls stay at EOF without touching the stream.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

TEST(PcapTest, PartialRecordHeaderIsTruncationNotEof) {
  // Cut *inside* the 16-byte record header — including inside its first
  // field, which a field-by-field reader cannot tell from clean EOF.
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  writer.write(util::SimTime::seconds(2), sample_frame(2));
  const std::string full = buf.str();
  const std::size_t second_record = full.size() - (16 + sample_frame(2).size());
  for (const std::size_t partial : {1u, 3u, 8u, 15u}) {
    std::stringstream damaged(full.substr(0, second_record + partial));
    Reader reader(damaged);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.end_state(), ReadEnd::kTruncated)
        << "partial header of " << partial << " bytes";
  }
}

TEST(PcapTest, NextIntoReusesCallerBuffer) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  writer.write(util::SimTime::seconds(2), sample_frame(2));
  Reader reader(buf);
  Record rec;
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data, sample_frame(1));
  const auto* before = rec.data.data();
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data, sample_frame(2));
  EXPECT_EQ(rec.data.data(), before);  // same-size record: no reallocation
  EXPECT_FALSE(reader.next_into(rec));
}

/// Appends a raw little-endian record header claiming `incl` bytes.
void append_record_header(std::string& out, std::uint32_t incl) {
  for (const std::uint32_t field : {1u, 0u, incl, incl}) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<char>(field >> shift));
    }
  }
}

TEST(PcapTest, RecordLongerThanCapIsTruncationNotAllocation) {
  // snaplen + 64 KiB still fits in 32 bits here, so only the
  // kMaxRecordBytes cap stands between a corrupt length field and a
  // 64 MiB buffer.
  std::stringstream header;
  Writer writer(header, LinkType::kEthernet, false, 0xFFFEFFFFu);
  std::string capture = header.str();
  append_record_header(capture, kMaxRecordBytes + 1);
  capture.append(64, '\0');
  std::stringstream in(capture);
  Reader reader(in);
  Record rec;
  testsupport::AllocGuard guard;
  const bool got = reader.next_into(rec);
  const std::size_t allocations = guard.stop();
  EXPECT_FALSE(got);
  EXPECT_EQ(reader.end_state(), ReadEnd::kTruncated);
  EXPECT_EQ(allocations, 0u) << "the bound applies before the buffer grows";
}

TEST(PcapTest, HugeSnaplenDoesNotWrapTheLengthBound) {
  // With snaplen 0xFFFFFFFF, snaplen + 64 KiB computed in 32 bits wraps
  // to 65535 and would reject this 70,000-byte record as corrupt.
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, false, 0xFFFFFFFFu);
  net::ByteBuffer frame = sample_frame(1);
  frame.resize(70'000, 0);
  writer.write(util::SimTime::seconds(1), frame);
  Reader reader(buf);
  Record rec;
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data.size(), 70'000u);
  EXPECT_FALSE(reader.next_into(rec));
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

/// Accepts nothing: every write fails immediately (disk-full stand-in).
class RefusingBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

/// Swallows writes but fails on sync (buffered disk-full stand-in).
class UnsyncableBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int sync() override { return -1; }
};

TEST(PcapTest, WriterFailsLoudlyWhenStreamRefusesBytes) {
  RefusingBuf refusing;
  std::ostream out(&refusing);
  EXPECT_THROW(Writer writer(out), std::runtime_error);
}

TEST(PcapTest, WriteAfterStreamErrorThrowsInsteadOfSilentLoss) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  buf.setstate(std::ios::badbit);
  EXPECT_THROW(writer.write(util::SimTime::seconds(2), sample_frame(2)),
               std::runtime_error);
}

TEST(PcapTest, FlushSurfacesSyncFailure) {
  UnsyncableBuf unsyncable;
  std::ostream out(&unsyncable);
  Writer writer(out);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  EXPECT_THROW(writer.flush(), std::runtime_error);
}

}  // namespace
}  // namespace syndog::pcap
