// Self-time arithmetic on a hand-built span tree.
//
//   root   [0, 100]
//   ├─ a   [10, 30]      a's child g [15, 20]
//   ├─ b   [20, 50]      overlaps a: root's covered part is [10, 50]
//   └─ c   [90, 120]     runs past root: clipped to [90, 100]
//   other  [200, 260]    a second root with no children
//
// root self = 100 - (40 + 10) = 50; a self = 20 - 5 = 15; b = 30;
// c = 30 (its own children none); g = 5; other = 60. Then the same
// totals with a tracing cost taken off.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.hpp"

namespace {

int failures = 0;

void expect_eq(const char* what, std::int64_t got, std::int64_t want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what,
                 static_cast<long long>(got), static_cast<long long>(want));
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Span;
  const std::vector<Span> tree = {
      {0, -1, 1, 0, 100},    // 0 root
      {1, 0, 1, 10, 30},     // 1 a
      {2, 0, 1, 20, 50},     // 2 b
      {3, 0, 1, 90, 120},    // 3 c
      {4, 1, 1, 15, 20},     // 4 g (child of a)
      {5, -1, 1, 200, 260},  // 5 other root
  };
  const std::vector<std::int64_t> self = perfbench::self_times(tree);
  expect_eq("root self", self[0], 50);
  expect_eq("a self", self[1], 15);
  expect_eq("b self", self[2], 30);
  expect_eq("c self", self[3], 30);
  expect_eq("g self", self[4], 5);
  expect_eq("other self", self[5], 60);

  // A child entirely outside its parent covers nothing of it.
  const std::vector<Span> disjoint = {{0, -1, 1, 0, 10}, {1, 0, 1, 20, 30}};
  expect_eq("disjoint parent self", perfbench::self_times(disjoint)[0], 10);

  // Per-name totals through SpanLog, and the drain cap's parent remap.
  perfbench::SpanLog log;
  const std::uint32_t run = log.intern("run");
  const std::uint32_t call = log.intern("call");
  const std::int32_t r = log.add(run, -1, 0, 100);
  log.add(call, r, 0, 10);
  log.add(call, r, 10, 30);
  log.add(call, r, 40, 45);
  const std::vector<perfbench::NameTotals> totals = log.totals();
  expect_eq("run count", static_cast<std::int64_t>(totals[run].count), 1);
  expect_eq("run self", totals[run].self_ns, 65);
  expect_eq("call total", totals[call].total_ns, 35);
  expect_eq("call self", totals[call].self_ns, 35);
  expect_eq("run children", static_cast<std::int64_t>(totals[run].children), 3);
  expect_eq("call children", static_cast<std::int64_t>(totals[call].children), 0);

  // Tracing cost taken off: 1 ns inside each span, 2 ns outside it. The
  // run keeps 65 - 1 - 3 * 2 of its self time and 100 - 1 - 3 * 3 of its
  // total; the calls keep 35 - 3 * 1.
  const perfbench::SpanCost cost{1.0, 2.0};
  expect_eq("run net self",
            static_cast<std::int64_t>(perfbench::net_self_ns(totals[run], cost)), 58);
  expect_eq("run net total",
            static_cast<std::int64_t>(perfbench::net_total_ns(totals[run], cost)), 90);
  expect_eq("call net total",
            static_cast<std::int64_t>(perfbench::net_total_ns(totals[call], cost)), 32);

  std::vector<std::uint64_t> elided;
  const std::vector<Span> kept = log.drain(2, elided);
  expect_eq("kept spans", static_cast<std::int64_t>(kept.size()), 3);
  expect_eq("elided calls", static_cast<std::int64_t>(elided[call]), 1);
  expect_eq("kept child parent", kept[1].parent, 0);
  expect_eq("log empty after drain",
            static_cast<std::int64_t>(log.spans().size()), 0);

  // The empty-span measurement adds one root span per sample.
  perfbench::SpanLog probe;
  const perfbench::SpanCost measured = perfbench::measure_empty_span(probe, 1000);
  expect_eq("empty spans added", static_cast<std::int64_t>(probe.spans().size()), 1000);
  expect_eq("empty span costs are not negative",
            measured.inside_ns >= 0.0 && measured.outside_ns >= 0.0, true);

  if (failures != 0) return EXIT_FAILURE;
  std::puts("spans_test: all checks passed");
  return EXIT_SUCCESS;
}
