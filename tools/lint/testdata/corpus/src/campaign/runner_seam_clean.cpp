// Negative fixture: the `src/campaign/runner` prefix is a sanctioned
// seam file — the campaign's threaded window loop spawns threads and
// shares the cell counter that drives run_cell_until across cells (and,
// by the same prefix, this corpus sibling is covered too).
#include <atomic>
#include <thread>

namespace syndog::campaign {

std::atomic<int> corpus_next_cell{0};

void corpus_run_window() {
  std::thread worker([] { corpus_next_cell.fetch_add(1); });
  worker.join();
}

}  // namespace syndog::campaign
