#include "syndog/ingest/stub_router.hpp"

#include <stdexcept>

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
  table_.reserve(stubs.size());
  for (const StubSpec& spec : stubs) {
    table_.push_back(Entry{spec.prefix.mask(), spec.prefix.base().value()});
  }
}

}  // namespace syndog::ingest
