// Spans for the traced run.
//
// The benchmark records a span around each call it makes into one of the
// program's layers (pcap, net, ingest, classify, core, sim, campaign):
// name, start, end, the span that caused it, and the pass it belongs to.
// Spans are kept in memory and written out when the run ends. A span's
// self time is its duration minus the part of its interval that its
// child spans cover; children may overlap each other or run past their
// parent, so the covered part is the union of the children's intervals
// clipped to the parent. Timing a call costs time too: SpanCost measures
// that cost on empty spans, and net_total_ns / net_self_ns take it off a
// name's totals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;   ///< index into SpanLog::names()
  std::int32_t parent = -1; ///< index of the causing span, -1 for a root
  std::uint32_t pass = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of every span in `spans` (same order). Parents are given by
/// index; a parent index outside the vector is treated as a root.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(n);
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= n) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = spans[i].duration() - union_ns;
  }
  return self;
}

/// Totals per span name over one set of spans.
struct NameTotals {
  std::uint64_t count = 0;
  std::uint64_t children = 0;  ///< child spans of this name's spans
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// What tracing one call costs. A call timed as `s = now_ns(); call();
/// e = now_ns(); log.add(..., s, e)` records `inside_ns` more than the
/// call took (the clock reads' share between the two timestamps), and
/// spends `outside_ns` more around the span (the rest of the clock reads
/// and the add), which falls to its parent's self time.
struct SpanCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

/// A name's total time with the tracing cost taken off: each span loses
/// its own inside cost, and each child span the whole of its cost.
[[nodiscard]] inline double net_total_ns(const NameTotals& t,
                                         const SpanCost& c) {
  return static_cast<double>(t.total_ns) -
         static_cast<double>(t.count) * c.inside_ns -
         static_cast<double>(t.children) * (c.inside_ns + c.outside_ns);
}

/// A name's self time with the tracing cost taken off: each span loses
/// its own inside cost, and the outside cost of each of its children.
[[nodiscard]] inline double net_self_ns(const NameTotals& t,
                                        const SpanCost& c) {
  return static_cast<double>(t.self_ns) -
         static_cast<double>(t.count) * c.inside_ns -
         static_cast<double>(t.children) * c.outside_ns;
}

class SpanLog {
 public:
  [[nodiscard]] std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void begin_pass(std::uint32_t pass) { pass_ = pass; }

  /// Opens a span starting now; close it with close().
  std::int32_t open(std::uint32_t name, std::int32_t parent = -1) {
    spans_.push_back(Span{name, parent, pass_, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Records a span whose times were taken by the caller.
  std::int32_t add(std::uint32_t name, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, parent, pass_, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& at(std::int32_t id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Per-name count, total and self time over the current spans.
  [[nodiscard]] std::vector<NameTotals> totals() const {
    std::vector<NameTotals> out(names_.size());
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ns += s.duration();
      t.self_ns += self[i];
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
        ++out[spans_[static_cast<std::size_t>(s.parent)].name].children;
      }
    }
    return out;
  }

  /// Moves the current spans out (for the span file) and starts empty.
  /// Keeps at most `keep_per_name` spans of each name, counting the rest
  /// in `elided` (indexed by name); parent indices of kept spans are
  /// remapped into the returned vector (-1 when the parent was elided).
  std::vector<Span> drain(std::size_t keep_per_name,
                          std::vector<std::uint64_t>& elided) {
    elided.resize(names_.size(), 0);
    std::vector<std::size_t> kept_of_name(names_.size(), 0);
    std::vector<std::int32_t> remap(spans_.size(), -1);
    std::vector<Span> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (kept_of_name[s.name] >= keep_per_name) {
        ++elided[s.name];
        continue;
      }
      ++kept_of_name[s.name];
      remap[i] = static_cast<std::int32_t>(out.size());
      out.push_back(s);
      out.back().parent =
          s.parent < 0 ? -1 : remap[static_cast<std::size_t>(s.parent)];
    }
    spans_.clear();
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t pass_ = 0;
};

/// Measures SpanCost with `n` empty spans timed and added to `log` the
/// way per-call spans are: two clock reads around nothing, then add().
/// They are roots named "trace.empty_span".
inline SpanCost measure_empty_span(SpanLog& log, std::size_t n) {
  const std::uint32_t name = log.intern("trace.empty_span");
  std::int64_t inside = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t s = now_ns();
    const std::int64_t e = now_ns();
    log.add(name, -1, s, e);
    inside += e - s;
  }
  const std::int64_t end = now_ns();
  const double per_span = static_cast<double>(end - start) / static_cast<double>(n);
  const double in = static_cast<double>(inside) / static_cast<double>(n);
  return {in, per_span - in};
}

}  // namespace perfbench
