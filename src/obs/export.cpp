#include "syndog/obs/export.hpp"

#include <cstdio>
#include <stdexcept>

namespace syndog::obs {

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("obs::write_file: cannot open " + path);
  }
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    throw std::runtime_error("obs::write_file: short write to " + path);
  }
}

}  // namespace syndog::obs
