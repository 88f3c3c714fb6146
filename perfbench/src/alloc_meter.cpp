#include "alloc_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc_meter {
namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live,
                                       std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  note_free(p);
  std::free(p);
}

}  // namespace

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

void reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench::alloc_meter

// The other forms (array, nothrow, sized delete) forward to these four by
// default.
void* operator new(std::size_t n) {
  return perfbench::alloc_meter::allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::alloc_meter::allocate_aligned(n, al);
}
void operator delete(void* p) noexcept { perfbench::alloc_meter::release(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::alloc_meter::release(p);
}
