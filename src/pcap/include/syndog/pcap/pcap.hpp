// Classic libpcap capture-file I/O, implemented from scratch.
//
// Synthetic traces round-trip through real `.pcap` files so the example
// tools behave like ordinary libpcap utilities (and outputs can be opened
// in tcpdump/wireshark). Supports the standard magic 0xa1b2c3d4
// (microsecond) and 0xa1b23c4d (nanosecond) in either byte order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>

#include "syndog/net/wire.hpp"
#include "syndog/util/time.hpp"

namespace syndog::pcap {

/// Link types we write/accept; Ethernet is what leaf-router captures use.
enum class LinkType : std::uint32_t {
  kEthernet = 1,
  kRawIp = 101,
};

struct FileHeader {
  static constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
  static constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;

  std::uint16_t version_major = 2;
  std::uint16_t version_minor = 4;
  std::int32_t thiszone = 0;
  std::uint32_t sigfigs = 0;
  std::uint32_t snaplen = 65535;
  LinkType link_type = LinkType::kEthernet;
  bool nanosecond = false;   ///< timestamp resolution of the file
  bool swapped = false;      ///< file byte order differs from host (read side)
};

struct Record {
  util::SimTime timestamp;
  std::uint32_t orig_len = 0;  ///< length on the wire (>= data.size())
  net::ByteBuffer data;        ///< captured bytes (possibly snapped)
};

/// Largest record (classic pcap) or block body (pcapng) any reader
/// accepts: 64 MiB. A length field beyond it is corrupt framing, never a
/// size to allocate.
inline constexpr std::uint32_t kMaxRecordBytes = std::uint32_t{1} << 26;

/// The 16-byte header in front of each classic-pcap record, decoded.
struct RecordHeader {
  std::int64_t timestamp_ns = 0;
  std::uint32_t incl_len = 0;  ///< captured bytes that follow the header
  std::uint32_t orig_len = 0;  ///< length on the wire
};

/// Decodes the record header at `bytes` (16 readable bytes) in `file`'s
/// byte order and timestamp resolution. Returns false when incl_len
/// exceeds snaplen + 64 KiB (computed in 64 bits, so a huge snaplen
/// cannot wrap the bound) or kMaxRecordBytes: corrupt framing, which
/// readers end as ReadEnd::kTruncated. The one record framer shared by
/// Reader and the sharded ingest datapath.
[[nodiscard]] inline bool decode_record_header(const FileHeader& file,
                                               const std::uint8_t* bytes,
                                               RecordHeader& out) {
  const auto field = [&](std::size_t offset) {
    const std::uint32_t v = net::load_le32(bytes + offset);
    return file.swapped ? net::byteswap32(v) : v;
  };
  const std::uint64_t bound = std::min<std::uint64_t>(
      std::uint64_t{file.snaplen} + 65536, kMaxRecordBytes);
  out.incl_len = field(8);
  if (out.incl_len > bound) return false;
  out.orig_len = field(12);
  const std::int64_t frac = field(4);
  out.timestamp_ns = std::int64_t{field(0)} * 1'000'000'000 +
                     (file.nanosecond ? frac : frac * 1'000);
  return true;
}

/// Why a reader stopped yielding records. `kTruncated` is a *distinct*
/// terminal state: the stream ended (or turned to garbage) mid-record, so
/// the capture is damaged and counts derived from it are a lower bound.
/// Callers that previously treated "no more records" as clean EOF can now
/// tell the two ends apart; the ingest pipeline surfaces kTruncated as an
/// obs counter.
enum class ReadEnd : std::uint8_t {
  kStreaming = 0,  ///< not terminal: more records may follow
  kEof = 1,        ///< clean end of stream after a whole record
  kTruncated = 2,  ///< stream ended mid-record / corrupt record framing
};

/// Streams records into a pcap file. The stream must outlive the writer.
/// Every write checks the ostream state and throws std::runtime_error on
/// failure (disk full, closed pipe) instead of silently producing a short
/// file; call flush() before relying on the bytes being on disk.
class Writer {
 public:
  /// Writes the file header immediately.
  Writer(std::ostream& out, LinkType link_type = LinkType::kEthernet,
         bool nanosecond = false, std::uint32_t snaplen = 65535);

  /// Appends one record; data beyond snaplen is truncated (orig_len keeps
  /// the full size, like a real capture with -s).
  void write(util::SimTime timestamp, net::ByteSpan frame);

  /// Flushes the underlying stream and throws if any buffered byte failed
  /// to reach it (ofstream destructors swallow that error otherwise).
  void flush();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  std::ostream& out_;
  FileHeader header_;
  std::uint64_t records_ = 0;
};

/// Reads records from a pcap file, tolerating either byte order and either
/// timestamp resolution. A malformed header throws std::runtime_error; a
/// stream that ends mid-record terminates with end_state() == kTruncated
/// (never silently mistaken for clean EOF, even when the cut lands inside
/// the first header field).
class Reader {
 public:
  explicit Reader(std::istream& in);

  [[nodiscard]] const FileHeader& header() const { return header_; }
  /// Next record, or nullopt at end of file.
  [[nodiscard]] std::optional<Record> next();
  /// Incremental form: overwrites `out`, reusing its buffer capacity so
  /// steady-state streaming performs no allocation. Returns false at end
  /// of stream (consult end_state() for why).
  [[nodiscard]] bool next_into(Record& out);
  [[nodiscard]] std::uint64_t records_read() const { return records_; }
  /// kStreaming until next()/next_into() returns empty, then kEof or
  /// kTruncated.
  [[nodiscard]] ReadEnd end_state() const { return end_; }
  /// True if the file ended mid-record (damaged capture).
  [[nodiscard]] bool truncated() const {
    return end_ == ReadEnd::kTruncated;
  }

 private:
  [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const;
  [[nodiscard]] std::uint16_t fix16(std::uint16_t v) const;

  std::istream& in_;
  FileHeader header_;
  std::uint64_t records_ = 0;
  ReadEnd end_ = ReadEnd::kStreaming;
};

}  // namespace syndog::pcap
