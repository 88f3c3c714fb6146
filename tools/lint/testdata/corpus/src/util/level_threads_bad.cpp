// Positive fixture: src/util is not a seam. It holds no thread, atomic or
// mutable global, so a process-wide level atomic or a worker thread here
// must be flagged like in any other module.
#include <atomic>
#include <thread>

namespace syndog::util {

std::atomic<int> corpus_level{0};  // EXPECT(concurrency.shared_mutable_static)

void corpus_worker() {
  std::thread worker([] {});  // EXPECT(concurrency.raw_thread)
  worker.join();
}

}  // namespace syndog::util
