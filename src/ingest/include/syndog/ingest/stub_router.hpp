// Stub routing shared by both ingest datapaths.
//
// A capture seen from one vantage point carries traffic for many stub
// networks; each frame crosses the monitored interfaces of at most two
// of them. StubRouter decides which. Each endpoint belongs to the first
// stub in list order whose prefix contains it (one binary search over a
// table of address intervals, each labelled with that stub), and the
// direction rule maps the two endpoints' stubs to interfaces:
//   * src in stub A, dst elsewhere   -> outbound through A
//   * dst in stub B, src elsewhere   -> inbound through B
//   * src in A and dst in B (A != B) -> both of the above
//   * src and dst in the same stub   -> LAN-local; never crosses the
//     monitored interface
//   * neither matches any stub       -> outbound through default_stub (a
//     spoofed-source flood leaving the capture's own stub), or
//     unroutable when default_stub is -1.
// syndog-lint: hotpath-file -- steady state must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "syndog/net/address.hpp"

namespace syndog::ingest {

struct StubSpec {
  net::Ipv4Prefix prefix;
  std::string name;  ///< labels telemetry; must be unique per demux
};

/// The interfaces one frame crosses. Stub indices, -1 for none.
struct StubRoute {
  int outbound = -1;   ///< stub whose outbound interface carries the frame
  int inbound = -1;    ///< stub whose inbound interface carries the frame
  bool local = false;  ///< src and dst inside one stub
  [[nodiscard]] bool unroutable() const {
    return !local && outbound < 0 && inbound < 0;
  }
};

class StubRouter {
 public:
  /// Throws std::invalid_argument when `stubs` is empty or default_stub
  /// is outside [-1, stubs.size()).
  StubRouter(const std::vector<StubSpec>& stubs, int default_stub);

  /// Routes a frame by its IPv4 endpoints (host order). O(log n) in
  /// the number of stubs.
  [[nodiscard]] StubRoute route(std::uint32_t src, std::uint32_t dst) const {
    const int src_stub = stub_of(src);
    const int dst_stub = stub_of(dst);
    if (src_stub >= 0 && src_stub == dst_stub) return {-1, -1, true};
    if (src_stub < 0 && dst_stub < 0) return {default_stub_, -1, false};
    return {src_stub, dst_stub, false};
  }

 private:
  struct Interval {
    std::uint32_t start;  ///< runs up to the next interval's start
    int owner;            ///< first-match stub, -1 outside every prefix
  };

  /// First-match stub of `addr`, -1 for none: the owner of the last
  /// interval that starts at or below it (the first starts at 0). This is
  /// std::upper_bound minus one without a data-dependent branch: each
  /// halving step is a conditional move and the trip count depends only
  /// on the table size. std::upper_bound mispredicts about every other
  /// step on random addresses, which at 4 stubs costs more than a scan
  /// of the prefixes.
  [[nodiscard]] int stub_of(std::uint32_t addr) const {
    const Interval* first = table_.data();
    for (std::size_t len = table_.size(); len > 1;) {
      const std::size_t half = len / 2;
      first = first[half].start <= addr ? first + half : first;
      len -= half;
    }
    return first->owner;
  }

  /// Ascending by start, the first at 0. Each prefix adds at most two
  /// boundaries, so there are at most 2 * stubs + 1 intervals, and
  /// neighbours never share an owner.
  std::vector<Interval> table_;
  int default_stub_;
};

}  // namespace syndog::ingest
