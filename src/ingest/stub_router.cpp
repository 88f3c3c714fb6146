#include "syndog/ingest/stub_router.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <tuple>

namespace syndog::ingest {

StubRouter::StubRouter(const std::vector<StubSpec>& stubs, int default_stub)
    : default_stub_(default_stub) {
  if (stubs.empty()) {
    throw std::invalid_argument("StubRouter: need at least one stub");
  }
  if (default_stub < -1 || default_stub >= static_cast<int>(stubs.size())) {
    throw std::invalid_argument(
        "StubRouter: default_stub out of range (use -1 to count unmatched "
        "frames unroutable)");
  }

  // CIDR prefixes are nested or disjoint, so one sweep in (base
  // ascending, end descending, index ascending) order meets every prefix
  // after the prefixes around it. The open prefixes form a stack, and
  // each carries the first-match stub of the addresses it covers: the
  // lowest index along its chain of enclosing prefixes.
  constexpr std::uint64_t kSpaceEnd = std::uint64_t{1} << 32;
  struct Span {
    std::uint64_t begin;
    std::uint64_t end;
    int index;
  };
  std::vector<Span> spans;
  spans.reserve(stubs.size());
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    const net::Ipv4Prefix& prefix = stubs[i].prefix;
    spans.push_back(Span{prefix.base().value(),
                         prefix.base().value() + prefix.size(),
                         static_cast<int>(i)});
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.begin, b.end, a.index) <
           std::tie(b.begin, a.end, b.index);
  });

  table_.reserve(2 * stubs.size() + 1);
  // Starts the interval [at, next start) owned by `owner`. An interval
  // left empty by a later start at the same address is dropped, and one
  // that continues its neighbour's owner is merged into it.
  const auto open_interval = [&](std::uint64_t at, int owner) {
    if (at == kSpaceEnd) return;
    if (!table_.empty() && table_.back().start == at) table_.pop_back();
    if (!table_.empty() && table_.back().owner == owner) return;
    table_.push_back(Interval{static_cast<std::uint32_t>(at), owner});
  };
  struct Open {
    std::uint64_t end;
    int owner;
  };
  std::vector<Open> open;
  open.reserve(stubs.size());
  const auto close_through = [&](std::uint64_t at) {
    while (!open.empty() && open.back().end <= at) {
      const std::uint64_t end = open.back().end;
      open.pop_back();
      open_interval(end, open.empty() ? -1 : open.back().owner);
    }
  };

  open_interval(0, -1);
  for (const Span& span : spans) {
    close_through(span.begin);
    const int owner = open.empty() ? span.index
                                   : std::min(span.index, open.back().owner);
    open_interval(span.begin, owner);
    open.push_back(Open{span.end, owner});
  }
  close_through(kSpaceEnd);
}

}  // namespace syndog::ingest
