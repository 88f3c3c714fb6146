// Definitions are not uses: nothing here keeps a declaration alive,
// although each name is followed by `(`.
#include "syndog/detect/api_surface.hpp"

namespace syndog::detect {

int corpus_test_only_free(int x) { return x + 1; }

int corpus_perfbench_only(int x) { return x * 3; }

int corpus_program_call(int x) { return x - 1; }

void corpus_waived_fake(int x) { (void)x; }

void CorpusApi::bump(std::int64_t n) { level_ += n; }

std::int64_t CorpusApi::digest() const { return level_ ^ 0x5a; }

void CorpusApi::reset() { level_ = 0; }

}  // namespace syndog::detect
