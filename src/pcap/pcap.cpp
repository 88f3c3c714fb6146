#include "syndog/pcap/pcap.hpp"

#include <cstring>
#include <stdexcept>

#include "syndog/net/wire.hpp"

namespace syndog::pcap {

namespace {

using net::byteswap16;
using net::byteswap32;
using net::load_le16;
using net::load_le32;

// pcap files are written in the *host* byte order of the capturing machine;
// we always emit little-endian (the dominant convention) and byte-swap on
// read when the magic indicates the other order.

void put_le16(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void put_le32(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out.write(bytes, 4);
}

bool get_le32(std::istream& in, std::uint32_t& v) {
  std::uint8_t bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (in.gcount() != 4) return false;
  v = load_le32(bytes);
  return true;
}

bool get_le16(std::istream& in, std::uint16_t& v) {
  std::uint8_t bytes[2];
  in.read(reinterpret_cast<char*>(bytes), 2);
  if (in.gcount() != 2) return false;
  v = load_le16(bytes);
  return true;
}

}  // namespace

Writer::Writer(std::ostream& out, LinkType link_type, bool nanosecond,
               std::uint32_t snaplen)
    : out_(out) {
  header_.link_type = link_type;
  header_.nanosecond = nanosecond;
  header_.snaplen = snaplen;
  put_le32(out_, nanosecond ? FileHeader::kMagicNanos
                            : FileHeader::kMagicMicros);
  put_le16(out_, header_.version_major);
  put_le16(out_, header_.version_minor);
  put_le32(out_, static_cast<std::uint32_t>(header_.thiszone));
  put_le32(out_, header_.sigfigs);
  put_le32(out_, header_.snaplen);
  put_le32(out_, static_cast<std::uint32_t>(header_.link_type));
  if (!out_) throw std::runtime_error("pcap::Writer: header write failed");
}

void Writer::write(util::SimTime timestamp, net::ByteSpan frame) {
  if (timestamp < util::SimTime::zero()) {
    throw std::runtime_error("pcap::Writer: negative timestamp");
  }
  if (!out_) {
    throw std::runtime_error("pcap::Writer: stream already in error state");
  }
  const std::int64_t ns = timestamp.ns();
  const auto sec = static_cast<std::uint32_t>(ns / 1'000'000'000);
  const std::int64_t frac_ns = ns % 1'000'000'000;
  const auto frac = static_cast<std::uint32_t>(
      header_.nanosecond ? frac_ns : frac_ns / 1'000);

  const auto incl =
      static_cast<std::uint32_t>(std::min<std::size_t>(frame.size(),
                                                       header_.snaplen));
  put_le32(out_, sec);
  put_le32(out_, frac);
  put_le32(out_, incl);
  put_le32(out_, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()), incl);
  if (!out_) throw std::runtime_error("pcap::Writer: record write failed");
  ++records_;
}

void Writer::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("pcap::Writer: flush failed");
}

Reader::Reader(std::istream& in) : in_(in) {
  std::uint32_t magic = 0;
  if (!get_le32(in_, magic)) {
    throw std::runtime_error("pcap::Reader: empty file");
  }
  switch (magic) {
    case FileHeader::kMagicMicros:
      break;
    case FileHeader::kMagicNanos:
      header_.nanosecond = true;
      break;
    case byteswap32(FileHeader::kMagicMicros):
      header_.swapped = true;
      break;
    case byteswap32(FileHeader::kMagicNanos):
      header_.swapped = true;
      header_.nanosecond = true;
      break;
    default:
      throw std::runtime_error("pcap::Reader: bad magic number");
  }
  std::uint16_t vmaj = 0;
  std::uint16_t vmin = 0;
  std::uint32_t thiszone = 0;
  std::uint32_t sigfigs = 0;
  std::uint32_t snaplen = 0;
  std::uint32_t link = 0;
  if (!get_le16(in_, vmaj) || !get_le16(in_, vmin) ||
      !get_le32(in_, thiszone) || !get_le32(in_, sigfigs) ||
      !get_le32(in_, snaplen) || !get_le32(in_, link)) {
    throw std::runtime_error("pcap::Reader: truncated file header");
  }
  header_.version_major = fix16(vmaj);
  header_.version_minor = fix16(vmin);
  header_.thiszone = static_cast<std::int32_t>(fix32(thiszone));
  header_.sigfigs = fix32(sigfigs);
  header_.snaplen = fix32(snaplen);
  header_.link_type = static_cast<LinkType>(fix32(link));
  if (header_.version_major != 2) {
    throw std::runtime_error("pcap::Reader: unsupported pcap version " +
                             std::to_string(header_.version_major));
  }
}

std::uint32_t Reader::fix32(std::uint32_t v) const {
  return header_.swapped ? byteswap32(v) : v;
}

std::uint16_t Reader::fix16(std::uint16_t v) const {
  return header_.swapped ? byteswap16(v) : v;
}

bool Reader::next_into(Record& out) {
  if (end_ != ReadEnd::kStreaming) return false;
  // Read the 16-byte record header as one block so a partial header —
  // even a cut inside the first field, which the old field-by-field reads
  // mistook for clean EOF — is reported as truncation.
  std::uint8_t header[16];
  in_.read(reinterpret_cast<char*>(header), sizeof header);
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got == 0) {
    end_ = ReadEnd::kEof;
    return false;
  }
  if (got != sizeof header) {
    end_ = ReadEnd::kTruncated;
    return false;
  }
  RecordHeader rec;
  if (!decode_record_header(header_, header, rec)) {
    end_ = ReadEnd::kTruncated;
    return false;
  }

  out.orig_len = rec.orig_len;
  out.data.resize(rec.incl_len);  // reuses capacity once warmed up
  in_.read(reinterpret_cast<char*>(out.data.data()), rec.incl_len);
  if (static_cast<std::uint32_t>(in_.gcount()) != rec.incl_len) {
    end_ = ReadEnd::kTruncated;
    return false;
  }
  out.timestamp = util::SimTime::nanoseconds(rec.timestamp_ns);
  ++records_;
  return true;
}

std::optional<Record> Reader::next() {
  Record rec;
  if (!next_into(rec)) return std::nullopt;
  return rec;
}

}  // namespace syndog::pcap
