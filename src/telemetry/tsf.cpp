#include "syndog/telemetry/tsf.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace syndog::telemetry {
namespace {

constexpr char kHeaderMagic[4] = {'S', 'T', 'F', '1'};
constexpr char kBlockMagic[4] = {'B', 'L', 'K', '1'};
constexpr char kTrailerMagic[4] = {'S', 'T', 'F', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kBlockHeaderSize = 20;
constexpr std::size_t kTrailerSize = 16;
// A truncated or garbled block header could carry an absurd series id;
// refuse to size reader state past this instead of allocating gigabytes.
constexpr std::uint32_t kMaxSeriesId = 1u << 20;

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint32_t hash = 2166136261u;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Cursor over an in-memory byte range; every read reports underflow
/// instead of running past the end.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] bool varint(std::uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t byte = *p++;
      out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;  // over-long encoding
  }

  [[nodiscard]] bool f64(double& out) {
    if (end - p < 8) return false;
    std::uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) bits = bits << 8 | p[i];
    p += 8;
    out = std::bit_cast<double>(bits);
    return true;
  }

  [[nodiscard]] bool str(std::string& out) {
    std::uint64_t len = 0;
    if (!varint(len)) return false;
    if (static_cast<std::uint64_t>(end - p) < len) return false;
    out.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(len));
    p += len;
    return true;
  }
};

}  // namespace

std::string_view to_string(ReadEnd end) {
  switch (end) {
    case ReadEnd::kEof:
      return "eof";
    case ReadEnd::kTruncated:
      return "truncated";
  }
  return "unknown";
}

// ---------------------------------------------------------------- writer

TsfWriter::TsfWriter(std::ostream& out, std::size_t block_capacity)
    : out_(out), block_capacity_(block_capacity == 0 ? 1 : block_capacity) {
  // Worst case per block: header + 10-byte varint per timestamp + raw
  // doubles. Sized once; flush_block never grows it.
  scratch_.reserve(kBlockHeaderSize + block_capacity_ * 18 + 16);
  std::uint8_t header[kHeaderSize] = {};
  std::memcpy(header, kHeaderMagic, 4);
  put_u32(header + 4, kVersion);
  put_u32(header + 8, static_cast<std::uint32_t>(block_capacity_));
  put_u32(header + 12, 0);
  out_.write(reinterpret_cast<const char*>(header), kHeaderSize);
}

TsfWriter::~TsfWriter() {
  // An implicit finish has no caller to report a stream failure to; an
  // explicit finish() is how a caller learns of one.
  if (!finished_) write_tail();
}

std::uint32_t TsfWriter::add_agent(std::string_view name,
                                   std::uint32_t as_number) {
  if (finished_) throw std::logic_error("TsfWriter: add_agent after finish");
  agents_.push_back(TsfAgent{std::string(name), as_number});
  return static_cast<std::uint32_t>(agents_.size() - 1);
}

std::uint32_t TsfWriter::add_metric(std::string_view name) {
  if (finished_) throw std::logic_error("TsfWriter: add_metric after finish");
  metrics_.emplace_back(name);
  return static_cast<std::uint32_t>(metrics_.size() - 1);
}

std::uint32_t TsfWriter::open_series(std::uint32_t agent,
                                     std::uint32_t metric) {
  if (finished_) throw std::logic_error("TsfWriter: open_series after finish");
  if (agent >= agents_.size() || metric >= metrics_.size()) {
    throw std::out_of_range("TsfWriter: open_series on unregistered id");
  }
  Series s;
  s.agent = agent;
  s.metric = metric;
  s.ts.reserve(block_capacity_);
  s.values.reserve(block_capacity_);
  series_.push_back(std::move(s));
  return static_cast<std::uint32_t>(series_.size() - 1);
}

void TsfWriter::append(std::uint32_t series, util::SimTime at, double value) {
  if (finished_) throw std::logic_error("TsfWriter: append after finish");
  if (series >= series_.size()) {
    throw std::out_of_range("TsfWriter: append to unopened series");
  }
  Series& s = series_[series];
  s.ts.push_back(at.ns());
  s.values.push_back(value);
  ++s.total;
  ++samples_;
  if (s.ts.size() >= block_capacity_) flush_block(series);
}

void TsfWriter::flush_block(std::uint32_t series_id) {
  Series& s = series_[series_id];
  if (s.ts.empty()) return;
  const auto count = static_cast<std::uint32_t>(s.ts.size());
  scratch_.clear();
  scratch_.resize(kBlockHeaderSize);  // header back-patched below
  // Timestamps: first absolute, then deltas — each block decodes on its
  // own so truncation costs only the damaged suffix.
  std::int64_t prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    put_varint(scratch_, zigzag(s.ts[i] - prev));
    prev = s.ts[i];
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(s.values[i]);
    for (int b = 0; b < 8; ++b) {
      scratch_.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
  }
  const auto payload_len =
      static_cast<std::uint32_t>(scratch_.size() - kBlockHeaderSize);
  std::memcpy(scratch_.data(), kBlockMagic, 4);
  put_u32(scratch_.data() + 4, series_id);
  put_u32(scratch_.data() + 8, count);
  put_u32(scratch_.data() + 12, payload_len);
  put_u32(scratch_.data() + 16,
          fnv1a(scratch_.data() + kBlockHeaderSize, payload_len));
  out_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  ++blocks_;
  s.ts.clear();
  s.values.clear();
}

void TsfWriter::finish() {
  if (finished_) return;
  write_tail();
  if (!out_) throw std::runtime_error("TsfWriter: stream write failed");
}

void TsfWriter::write_tail() {
  finished_ = true;  // first, so a failed stream is never written twice
  for (std::uint32_t i = 0; i < series_.size(); ++i) flush_block(i);
  std::vector<std::uint8_t> footer;
  put_varint(footer, agents_.size());
  for (const TsfAgent& a : agents_) {
    put_varint(footer, a.name.size());
    footer.insert(footer.end(), a.name.begin(), a.name.end());
    put_varint(footer, a.as_number);
  }
  put_varint(footer, metrics_.size());
  for (const std::string& m : metrics_) {
    put_varint(footer, m.size());
    footer.insert(footer.end(), m.begin(), m.end());
  }
  put_varint(footer, series_.size());
  for (const Series& s : series_) {
    put_varint(footer, s.agent);
    put_varint(footer, s.metric);
    put_varint(footer, s.total);
  }
  put_varint(footer, samples_);
  out_.write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  std::uint8_t trailer[kTrailerSize] = {};
  put_u32(trailer, static_cast<std::uint32_t>(footer.size()));
  put_u32(trailer + 4, fnv1a(footer.data(), footer.size()));
  put_u32(trailer + 8, static_cast<std::uint32_t>(blocks_));
  std::memcpy(trailer + 12, kTrailerMagic, 4);
  out_.write(reinterpret_cast<const char*>(trailer), kTrailerSize);
  out_.flush();
}

// ---------------------------------------------------------------- reader

TsfReader::TsfReader(std::istream& in) {
  std::string buf;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    buf.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (in.eof()) break;
  }
  if (buf.size() < kHeaderSize ||
      std::memcmp(buf.data(), kHeaderMagic, 4) != 0) {
    throw std::runtime_error("tsf: not a syndog-tsf stream (bad magic)");
  }
  const std::uint32_t version =
      get_u32(reinterpret_cast<const std::uint8_t*>(buf.data()) + 4);
  if (version != kVersion) {
    throw std::runtime_error("tsf: unsupported version " +
                             std::to_string(version));
  }
  parse(buf);
}

const std::vector<TsfSample>& TsfReader::samples(
    std::uint32_t series_id) const {
  static const std::vector<TsfSample> kEmpty;
  if (series_id >= samples_.size()) return kEmpty;
  return samples_[series_id];
}

std::int64_t TsfReader::find_metric(std::string_view name) const {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i] == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

bool TsfReader::parse_footer(const std::string& buf, std::size_t payload_begin,
                             std::size_t payload_len) {
  const auto* base = reinterpret_cast<const std::uint8_t*>(buf.data());
  Cursor cur{base + payload_begin, base + payload_begin + payload_len};
  std::uint64_t n = 0;
  if (!cur.varint(n) || n > kMaxSeriesId) return false;
  std::vector<TsfAgent> agents(static_cast<std::size_t>(n));
  for (TsfAgent& a : agents) {
    std::uint64_t as_number = 0;
    if (!cur.str(a.name) || !cur.varint(as_number)) return false;
    a.as_number = static_cast<std::uint32_t>(as_number);
  }
  if (!cur.varint(n) || n > kMaxSeriesId) return false;
  std::vector<std::string> metrics(static_cast<std::size_t>(n));
  for (std::string& m : metrics) {
    if (!cur.str(m)) return false;
  }
  if (!cur.varint(n) || n > kMaxSeriesId) return false;
  std::vector<TsfSeries> series(static_cast<std::size_t>(n));
  for (TsfSeries& s : series) {
    std::uint64_t agent = 0;
    std::uint64_t metric = 0;
    if (!cur.varint(agent) || !cur.varint(metric) || !cur.varint(s.samples)) {
      return false;
    }
    if (agent >= agents.size() || metric >= metrics.size()) return false;
    s.agent = static_cast<std::uint32_t>(agent);
    s.metric = static_cast<std::uint32_t>(metric);
  }
  std::uint64_t total = 0;
  if (!cur.varint(total) || cur.p != cur.end) return false;
  agents_ = std::move(agents);
  metrics_ = std::move(metrics);
  series_ = std::move(series);
  has_dictionaries_ = true;
  return true;
}

void TsfReader::parse(const std::string& buf) {
  const auto* base = reinterpret_cast<const std::uint8_t*>(buf.data());
  // Locate the footer first (from the fixed-size trailer at EOF) so the
  // block scan knows where data ends; a missing or corrupt footer leaves
  // the scan running to EOF and the verdict at kTruncated.
  bool footer_ok = false;
  std::size_t blocks_end = buf.size();
  std::uint32_t footer_blocks = 0;
  if (buf.size() >= kHeaderSize + kTrailerSize &&
      std::memcmp(buf.data() + buf.size() - 4, kTrailerMagic, 4) == 0) {
    const std::size_t trailer_at = buf.size() - kTrailerSize;
    const std::uint32_t footer_len = get_u32(base + trailer_at);
    const std::uint32_t footer_crc = get_u32(base + trailer_at + 4);
    footer_blocks = get_u32(base + trailer_at + 8);
    if (footer_len <= trailer_at - kHeaderSize) {
      const std::size_t payload_begin = trailer_at - footer_len;
      if (fnv1a(base + payload_begin, footer_len) == footer_crc &&
          parse_footer(buf, payload_begin, footer_len)) {
        footer_ok = true;
        blocks_end = payload_begin;
      }
    }
  }
  if (has_dictionaries_) samples_.resize(series_.size());

  // A valid footer names every series; a block outside it is damage.
  const std::size_t series_limit = footer_ok ? series_.size() : kMaxSeriesId;
  bool damaged = false;
  std::size_t pos = kHeaderSize;
  while (pos + kBlockHeaderSize <= blocks_end &&
         std::memcmp(buf.data() + pos, kBlockMagic, 4) == 0) {
    const std::uint32_t series_id = get_u32(base + pos + 4);
    const std::uint32_t count = get_u32(base + pos + 8);
    const std::uint32_t payload_len = get_u32(base + pos + 12);
    const std::uint32_t crc = get_u32(base + pos + 16);
    // A sample takes at least one varint byte and 8 value bytes; the CRC
    // covers neither `count` nor `series_id`, so bound both before they
    // size anything.
    if (series_id >= series_limit || count == 0 || count > payload_len / 9 ||
        payload_len > blocks_end - pos - kBlockHeaderSize ||
        fnv1a(base + pos + kBlockHeaderSize, payload_len) != crc) {
      damaged = true;  // cut mid-write or bit-flipped: drop this suffix
      break;
    }
    Cursor cur{base + pos + kBlockHeaderSize,
               base + pos + kBlockHeaderSize + payload_len};
    std::vector<TsfSample> decoded(count);
    std::int64_t prev = 0;
    bool ok = true;
    for (std::uint32_t i = 0; i < count && ok; ++i) {
      std::uint64_t zz = 0;
      ok = cur.varint(zz);
      if (ok) {
        prev += unzigzag(zz);
        decoded[i].at = util::SimTime::nanoseconds(prev);
      }
    }
    for (std::uint32_t i = 0; i < count && ok; ++i) {
      ok = cur.f64(decoded[i].value);
    }
    if (!ok || cur.p != cur.end) {
      damaged = true;  // payload does not decode to exactly `count` samples
      break;
    }
    if (series_id >= samples_.size()) samples_.resize(series_id + 1);
    auto& dst = samples_[series_id];
    dst.insert(dst.end(), decoded.begin(), decoded.end());
    total_samples_ += count;
    ++blocks_;
    pos += kBlockHeaderSize + payload_len;
  }
  if (pos != blocks_end) damaged = true;  // garbage tail before the footer

  if (footer_ok) {
    // The footer's promises double as an integrity cross-check: a valid
    // footer over a damaged block region must still read as truncated.
    if (blocks_ != footer_blocks) damaged = true;
    for (std::size_t i = 0; i < series_.size() && !damaged; ++i) {
      const std::uint64_t got =
          i < samples_.size() ? samples_[i].size() : std::size_t{0};
      if (got != series_[i].samples) damaged = true;
    }
  } else {
    // No dictionaries: synthesize a directory from what was recovered so
    // callers can still iterate series by id.
    series_.resize(samples_.size());
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      series_[i].agent = std::numeric_limits<std::uint32_t>::max();
      series_[i].metric = std::numeric_limits<std::uint32_t>::max();
      series_[i].samples = samples_[i].size();
    }
  }
  if (samples_.size() < series_.size()) samples_.resize(series_.size());
  end_ = footer_ok && !damaged ? ReadEnd::kEof : ReadEnd::kTruncated;
}

}  // namespace syndog::telemetry
