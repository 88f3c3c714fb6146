// Test-side callers for the api.test_only fixtures. A test call keeps a
// function alive only when it is a state accessor (CorpusApi::level).
#include "syndog/detect/api_surface.hpp"

namespace syndog::detect {

int corpus_api_test() {
  CorpusApi api;
  api.bump(corpus_test_only_free(1));
  corpus_waived_fake(2);
  return static_cast<int>(api.level() + api.digest());
}

}  // namespace syndog::detect
