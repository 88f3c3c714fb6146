// Threaded window loop for CampaignSim (the campaign's concurrency seam).
//
// The caller and `workers - 1` threads run the same loop: claim cells off
// one atomic counter, run each to the window's barrier (safe for distinct
// cells, which share no mutable state), then arrive at one std::barrier.
// Its completion step runs with every participant parked, so it alone
// does the sequential part of the window: exchange_and_advance, the next
// barrier time, the counter reset and the stop decision. The worker
// count only changes which thread runs a cell, never the cells or any
// event order, so every output is byte-identical to run_until(end).
#include "syndog/campaign/campaign_sim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <thread>
#include <vector>

namespace syndog::campaign {

void CampaignSim::run_until(util::SimTime end, int workers) {
  if (workers <= 1) {
    run_until(end);
    return;
  }
  if (now_ >= end) return;
  const int cells = cell_count();
  util::SimTime until = std::min(now_ + window_, end);
  std::atomic<int> next_cell{0};
  bool stop = false;
  // One slot per participant, then one for the exchange. A thrown
  // exception stops the loop at the next barrier instead of leaving the
  // other participants blocked there.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers) +
                                         1);

  std::barrier window_end(workers, [&]() noexcept {
    stop = std::any_of(errors.begin(), errors.end(),
                       [](const auto& e) { return e != nullptr; });
    if (stop) return;
    try {
      exchange_and_advance(until);
    } catch (...) {
      errors.back() = std::current_exception();
      stop = true;
      return;
    }
    until = std::min(now_ + window_, end);
    next_cell = 0;
    stop = now_ >= end;
  });

  auto participate = [&](int w) {
    while (!stop) {
      try {
        for (int c = next_cell++; c < cells; c = next_cell++) {
          run_cell_until(c, until);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
      window_end.arrive_and_wait();
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      try {
        pool.emplace_back(participate, w);
      } catch (...) {
        // This participant never runs: record why and take it out of
        // every phase, so the ones already started are not left waiting.
        errors[static_cast<std::size_t>(w)] = std::current_exception();
        window_end.arrive_and_drop();
      }
    }
    participate(0);
  }  // joins the pool
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace syndog::campaign
