// File export for rendered telemetry (the BENCH_*.json sidecars).
#pragma once

#include <string>

namespace syndog::obs {

/// Writes `content` to `path` (truncating); throws std::runtime_error on
/// I/O failure so a bench cannot silently emit nothing.
void write_file(const std::string& path, const std::string& content);

}  // namespace syndog::obs
