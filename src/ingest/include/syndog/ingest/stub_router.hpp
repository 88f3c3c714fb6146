// Stub routing shared by both ingest datapaths.
//
// A capture seen from one vantage point carries traffic for many stub
// networks; each frame crosses the monitored interfaces of at most two
// of them. StubRouter decides which: a flat table of stub prefixes,
// matched first-match in stub order, plus the direction rule
//   * src in stub A, dst elsewhere   -> outbound through A
//   * dst in stub B, src elsewhere   -> inbound through B
//   * src in A and dst in B (A != B) -> both of the above
//   * src and dst in the same stub   -> LAN-local; never crosses the
//     monitored interface
//   * neither matches any stub       -> outbound through default_stub (a
//     spoofed-source flood leaving the capture's own stub), or
//     unroutable when default_stub is -1.
// With a single stub and default_stub = 0 this is the direction
// heuristic of examples/pcap_sniffer: outbound iff contains(src) or not
// contains(dst).
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

  /// Routes a frame by its IPv4 endpoints (host order).
  [[nodiscard]] StubRoute route(std::uint32_t src, std::uint32_t dst) const {
    int src_stub = -1;
    int dst_stub = -1;
    // One pass over the table for both endpoints, no early exit: the
    // common frame has one endpoint outside every stub anyway.
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const Entry& e = table_[i];
      if (src_stub < 0 && (src & e.mask) == e.net) {
        src_stub = static_cast<int>(i);
      }
      if (dst_stub < 0 && (dst & e.mask) == e.net) {
        dst_stub = static_cast<int>(i);
      }
    }
    if (src_stub >= 0 && src_stub == dst_stub) return {-1, -1, true};
    if (src_stub < 0 && dst_stub < 0) return {default_stub_, -1, false};
    return {src_stub, dst_stub, false};
  }

 private:
  /// A prefix reduced to the two words a match compares.
  struct Entry {
    std::uint32_t mask;
    std::uint32_t net;
  };

  std::vector<Entry> table_;
  int default_stub_;
};

}  // namespace syndog::ingest
