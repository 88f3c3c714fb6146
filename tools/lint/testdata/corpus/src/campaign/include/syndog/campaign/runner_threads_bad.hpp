// Positive fixture: the campaign's seam is runner.cpp alone. A public
// header named like it is not a seam, so a thread spawned here must be
// flagged like one in any other sequential file.
#pragma once

#include <thread>

namespace syndog::campaign {

inline void corpus_header_worker() {
  std::thread worker([] {});  // EXPECT(concurrency.raw_thread)
  worker.join();
}

}  // namespace syndog::campaign
