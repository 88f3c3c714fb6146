// syndog-tsf/1 — compact append-only columnar time-series container.
//
// The on-disk shape of a fleet telemetry campaign (docs/OBSERVABILITY.md
// §Fleet telemetry has the full byte-level spec):
//
//     [header 16B] [block]* [footer payload] [trailer 16B]
//
// Samples are grouped per series (one series = one agent × one metric)
// into fixed-capacity blocks; each block stores zigzag-varint
// delta-encoded sim timestamps followed by raw little-endian doubles,
// guarded by an FNV-1a checksum. Dictionaries (agent names + AS numbers,
// metric names, per-series totals) live in a footer written once at
// finish() so the data path stays append-only. Like the pcap readers, the
// reader is truncation-tolerant: a cut-off or garbage tail costs only the
// damaged suffix, and `ReadEnd` reports how the stream ended instead of
// throwing away the intact prefix.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "syndog/util/time.hpp"

namespace syndog::telemetry {

/// How a telemetry stream ended — mirrors pcap::ReadEnd (telemetry does
/// not link against the capture layer, hence its own copy).
enum class ReadEnd : std::uint8_t {
  kEof,        ///< clean: every block intact and the footer verified
  kTruncated,  ///< damaged or cut mid-write; intact prefix was recovered
};

[[nodiscard]] std::string_view to_string(ReadEnd end);

/// One decoded sample (reader side).
struct TsfSample {
  util::SimTime at;
  double value = 0.0;
};

/// Agent dictionary entry: stub identity plus the AS it defends.
struct TsfAgent {
  std::string name;
  std::uint32_t as_number = 0;
};

/// Series directory entry: agent × metric with the footer's sample count.
struct TsfSeries {
  std::uint32_t agent = 0;   ///< index into agents()
  std::uint32_t metric = 0;  ///< index into metrics()
  std::uint64_t samples = 0; ///< count promised by the footer
};

/// Streaming writer. Register agents/metrics, open series, append
/// samples, then finish(); the footer is written exactly once. Appends
/// between block flushes touch only preallocated storage (the scratch
/// encode buffer is sized at open_series time), so a TelemetrySink push
/// stays off the allocator in steady state.
class TsfWriter {
 public:
  /// `block_capacity` = samples per block before a flush (min 1).
  explicit TsfWriter(std::ostream& out, std::size_t block_capacity = 512);
  ~TsfWriter();
  TsfWriter(const TsfWriter&) = delete;
  TsfWriter& operator=(const TsfWriter&) = delete;

  /// Dictionary registration; ids are dense and assigned in call order
  /// (that order is part of the byte-identity contract).
  std::uint32_t add_agent(std::string_view name, std::uint32_t as_number);
  std::uint32_t add_metric(std::string_view name);
  std::uint32_t open_series(std::uint32_t agent, std::uint32_t metric);

  /// Appends one sample to an open series; flushes a block when the
  /// series reaches block_capacity buffered samples.
  void append(std::uint32_t series, util::SimTime at, double value);

  /// Flushes every partial block (in series-id order), writes the footer
  /// and trailer, and flushes the stream. Idempotent. Throws
  /// std::runtime_error when the stream has failed (like pcap::Writer::
  /// flush); the destructor's implicit finish never throws.
  void finish();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::uint64_t samples_written() const { return samples_; }
  [[nodiscard]] std::uint64_t blocks_written() const { return blocks_; }

 private:
  struct Series {
    std::uint32_t agent = 0;
    std::uint32_t metric = 0;
    std::uint64_t total = 0;
    std::vector<std::int64_t> ts;
    std::vector<double> values;
  };

  void flush_block(std::uint32_t series_id);
  /// Marks the writer finished, then writes the tail finish() describes.
  void write_tail();

  std::ostream& out_;
  std::size_t block_capacity_;
  std::vector<TsfAgent> agents_;
  std::vector<std::string> metrics_;
  std::vector<Series> series_;
  std::vector<std::uint8_t> scratch_;  ///< reusable block encode buffer
  std::uint64_t samples_ = 0;
  std::uint64_t blocks_ = 0;
  bool finished_ = false;
};

/// In-memory reader. Consumes the whole stream up front (campaign files
/// are megabytes, not gigabytes), validates header, blocks and footer,
/// and keeps every sample that survives. Never throws on damage past the
/// 16-byte header — damage downgrades end() to kTruncated instead.
class TsfReader {
 public:
  /// Throws std::runtime_error only when the stream is too short for the
  /// header or the magic is wrong (not a tsf file at all).
  explicit TsfReader(std::istream& in);

  [[nodiscard]] ReadEnd end() const { return end_; }
  /// False when the footer was missing or corrupt (agent/metric names
  /// unavailable; series still addressable by id).
  [[nodiscard]] bool has_dictionaries() const { return has_dictionaries_; }

  [[nodiscard]] const std::vector<TsfAgent>& agents() const { return agents_; }
  [[nodiscard]] const std::vector<std::string>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<TsfSeries>& series() const {
    return series_;
  }
  /// Samples recovered for `series_id`, in append order. Ids beyond the
  /// directory (possible on truncated files) return an empty vector.
  [[nodiscard]] const std::vector<TsfSample>& samples(
      std::uint32_t series_id) const;

  /// Index of the metric named `name`, or -1 when absent.
  [[nodiscard]] std::int64_t find_metric(std::string_view name) const;

  [[nodiscard]] std::uint64_t total_samples() const { return total_samples_; }
  [[nodiscard]] std::uint64_t blocks_read() const { return blocks_; }

 private:
  void parse(const std::string& buf);
  bool parse_footer(const std::string& buf, std::size_t payload_begin,
                    std::size_t payload_len);

  ReadEnd end_ = ReadEnd::kTruncated;
  bool has_dictionaries_ = false;
  std::vector<TsfAgent> agents_;
  std::vector<std::string> metrics_;
  std::vector<TsfSeries> series_;
  std::vector<std::vector<TsfSample>> samples_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace syndog::telemetry
