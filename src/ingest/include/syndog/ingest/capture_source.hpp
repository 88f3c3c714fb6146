// Format-agnostic incremental capture source.
//
// Sniffs the first four bytes of a stream (pcap::is_pcapng) to choose
// between the classic pcap reader and the pcapng reader, then yields
// records one at a time through the readers' buffer-reusing next_into()
// path, so memory stays flat whatever the capture size. The terminal
// state (clean EOF vs truncation) is surfaced unchanged so the replay
// engine can account for damaged captures.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>

#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"

namespace syndog::ingest {

enum class CaptureFormat : std::uint8_t { kPcap, kPcapng };

class CaptureSource {
 public:
  /// Sniffs the stream and constructs the matching reader. Throws
  /// std::runtime_error when the stream starts with neither a pcap magic
  /// nor a pcapng section header.
  explicit CaptureSource(std::istream& in);

  [[nodiscard]] CaptureFormat format() const { return format_; }
  /// The classic-pcap file header; nullptr for pcapng.
  [[nodiscard]] const pcap::FileHeader* pcap_header() const {
    return pcap_ ? &pcap_->header() : nullptr;
  }

  /// Next record, overwriting `out` (reusing its buffer capacity).
  /// Returns false at end of stream; consult end_state() for why.
  [[nodiscard]] bool next(pcap::Record& out);

  [[nodiscard]] pcap::ReadEnd end_state() const;

 private:
  CaptureFormat format_;
  // Exactly one of these is engaged, chosen by the sniffed magic.
  std::optional<pcap::Reader> pcap_;
  std::optional<pcap::PcapngReader> pcapng_;
};

}  // namespace syndog::ingest
