// perfbench/ is read for call sites only: its calls keep program code
// alive, and none of its lines is linted (this wall-clock read would be
// determinism.wall_clock anywhere under src/, tests/, bench/ or
// examples/).
#include <chrono>

#include "syndog/detect/api_surface.hpp"

int corpus_bench() {
  const auto t0 = std::chrono::steady_clock::now();
  (void)t0;
  return syndog::detect::corpus_perfbench_only(2);
}
