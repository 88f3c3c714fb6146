// Negative fixture for api.test_only: another src/ module is a program
// caller, and so is taking a member's address.
#include "syndog/detect/api_surface.hpp"

namespace syndog::campaign {

int corpus_use_detect(int x) {
  auto reset = &detect::CorpusApi::reset;
  detect::CorpusApi api;
  (api.*reset)();
  return detect::corpus_program_call(x);
}

}  // namespace syndog::campaign
