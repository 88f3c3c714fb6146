// Heap accounting for the mem_mb metric.
//
// alloc_meter.cpp replaces the global operator new / delete of the
// benchmark binary, which links the program's libraries statically, so
// every C++ heap allocation the program makes is counted. Thread stacks
// and memory the program maps itself are not.
#pragma once

#include <cstdint>

namespace perfbench::alloc_meter {

/// Bytes currently allocated.
[[nodiscard]] std::int64_t live_bytes();

/// Starts a new peak window at the current live byte count.
void reset_peak();

/// Highest live byte count since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();

}  // namespace perfbench::alloc_meter
