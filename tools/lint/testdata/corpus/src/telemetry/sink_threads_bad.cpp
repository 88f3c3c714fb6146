// Positive fixture: src/telemetry is not a seam. The sink appends each
// sample synchronously on the producer's thread, so a drain thread or a
// namespace-scope counter here must be flagged like in any other module.
#include <thread>

namespace syndog::telemetry {

long corpus_drained = 0;  // EXPECT(concurrency.shared_mutable_static)

void corpus_drain() {
  std::thread consumer([] {});  // EXPECT(concurrency.raw_thread)
  consumer.join();
}

}  // namespace syndog::telemetry
