// Program callers of the functions the other rules' header fixtures
// declare, so api.test_only stays silent on them: examples/ is program
// code like src/ and bench/.
#include "syndog/campaign/runner_threads_bad.hpp"
#include "syndog/detect/bad_header.hpp"
#include "syndog/detect/unordered_bad.hpp"
#include "syndog/ingest/hotpath_clean.hpp"
#include "syndog/sim/hotpath_bad.hpp"
#include "syndog/util/corpus_ok.hpp"

int corpus_example(void* slot) {
  syndog::campaign::corpus_header_worker();
  syndog::detect::CorpusCounts counts;
  counts.dump();
  syndog::sim::CorpusPool pool;
  pool.grow(1);
  (void)syndog::ingest::corpus_construct(slot);
  return static_cast<int>(syndog::util::corpus_mix(1) +
                          syndog::detect::corpus_size() + counts.total());
}
