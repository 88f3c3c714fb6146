// Positive fixture: src/campaign is not a directory-wide seam. Only
// runner.cpp (the threaded window loop) may spawn threads; CampaignSim
// and the other sequential per-cell files must be flagged exactly like
// any other module when they grow threads or namespace-scope mutable
// state.
#include <thread>

namespace syndog::campaign {

int corpus_cells_run = 0;  // EXPECT(concurrency.shared_mutable_static)

void corpus_cell_async() {
  std::thread cell([] {});  // EXPECT(concurrency.raw_thread)
  cell.join();
}

}  // namespace syndog::campaign
