// pcapng (pcap next generation) capture-file I/O, implemented from
// scratch per the IETF draft-tuexen-opsawg-pcapng block format.
//
// Supported blocks: Section Header (SHB), Interface Description (IDB),
// and Enhanced Packet (EPB); unknown block types are skipped, as the
// format requires. The writer emits one section with one Ethernet
// interface at nanosecond resolution (if_tsresol = 9); the reader
// handles either endianness (byte-order magic 0x1A2B3C4D), multiple
// sections, multiple interfaces, and per-interface timestamp
// resolutions (a tick rate past 64 bits is rejected as malformed).
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "syndog/pcap/pcap.hpp"

namespace syndog::pcap {

/// Writes a single-section, single-interface pcapng stream. Every write
/// checks the ostream state and throws std::runtime_error on failure
/// instead of silently producing a short file.
class PcapngWriter {
 public:
  explicit PcapngWriter(std::ostream& out,
                        LinkType link_type = LinkType::kEthernet,
                        std::uint32_t snaplen = 65535);

  /// Appends one Enhanced Packet Block; timestamps are nanoseconds.
  void write(util::SimTime timestamp, net::ByteSpan frame);

  /// Flushes the underlying stream and throws if any buffered byte failed
  /// to reach it (ofstream destructors swallow that error otherwise).
  void flush();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
  std::uint64_t records_ = 0;
};

/// Reads pcapng streams; yields the same Record type as the classic
/// reader so downstream analysis is format-agnostic. A stream that ends
/// mid-block terminates with end_state() == ReadEnd::kTruncated.
class PcapngReader {
 public:
  explicit PcapngReader(std::istream& in);

  /// Next packet record, or nullopt at end of stream. Non-packet blocks
  /// are consumed transparently.
  [[nodiscard]] std::optional<Record> next();
  /// Incremental form: overwrites `out`, reusing its buffer capacity so
  /// steady-state streaming performs no allocation. Returns false at end
  /// of stream (consult end_state() for why).
  [[nodiscard]] bool next_into(Record& out);

  [[nodiscard]] std::uint64_t records_read() const { return records_; }
  /// kStreaming until next()/next_into() returns empty, then kEof or
  /// kTruncated.
  [[nodiscard]] ReadEnd end_state() const { return end_; }
  [[nodiscard]] bool truncated() const {
    return end_ == ReadEnd::kTruncated;
  }
  /// Link type of the interface the last record arrived on.
  [[nodiscard]] LinkType last_link_type() const { return last_link_; }

 private:
  struct Interface {
    LinkType link_type = LinkType::kEthernet;
    /// Ticks per second of this interface's timestamps.
    std::uint64_t ticks_per_second = 1'000'000;
  };

  [[nodiscard]] bool read_block(Record& out, bool& have_record);
  [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const;
  [[nodiscard]] std::uint16_t fix16(std::uint16_t v) const;
  void parse_section_header(const std::vector<std::uint8_t>& body);
  void parse_interface_block(const std::vector<std::uint8_t>& body);
  [[nodiscard]] bool parse_packet_block(const std::vector<std::uint8_t>& body,
                                        Record& out) const;

  std::istream& in_;
  bool swapped_ = false;
  bool in_section_ = false;
  std::vector<Interface> interfaces_;
  std::vector<std::uint8_t> block_scratch_;  ///< reused block-body buffer
  std::uint64_t records_ = 0;
  ReadEnd end_ = ReadEnd::kStreaming;
  LinkType last_link_ = LinkType::kEthernet;
};

/// True when a capture starting with `head` is pcapng: its first four
/// bytes are the Section Header Block type (a byte-order palindrome).
/// Anything else is read as classic pcap, whose Reader rejects an unknown
/// magic. Throws std::runtime_error when `head` holds fewer than four
/// bytes.
[[nodiscard]] bool is_pcapng(net::ByteSpan head);
/// Stream form: reads the first four bytes and puts them back.
[[nodiscard]] bool is_pcapng(std::istream& in);

}  // namespace syndog::pcap
