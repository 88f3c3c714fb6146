#include "common/sidecar.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "syndog/obs/export.hpp"
#include "syndog/obs/json.hpp"
#include "syndog/util/config.hpp"

namespace syndog::bench {

namespace {

// Bench harness singleton: bench binaries are single-threaded and the
// pointer is written once at startup, read once by the atexit hook.
// syndog-lint: allow-next-line(concurrency.shared_mutable_static) -- single-threaded bench singleton
std::unique_ptr<Sidecar> g_sidecar;

void write_sidecar_at_exit() {
  if (!g_sidecar) return;
  try {
    const std::string path = g_sidecar->write();
    std::fprintf(stderr, "sidecar: wrote %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sidecar: write failed: %s\n", e.what());
  }
}

void append_json_object(
    std::string& out, const char* key,
    const std::map<std::string, double, std::less<>>& values) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += obs::json_string(name);
    out += ':';
    out += obs::json_number(value);
  }
  out += '}';
}

}  // namespace

Sidecar::Sidecar(std::string name) : name_(std::move(name)) {
  if (name_.empty()) {
    throw std::invalid_argument("sidecar: experiment name must be non-empty");
  }
}

void Sidecar::scalar(const std::string& key, double value) {
  scalars_[key] = value;
}

void Sidecar::text(const std::string& key, std::string value) {
  text_[key] = std::move(value);
}

void Sidecar::series(const std::string& key, std::vector<double> values) {
  series_[key] = std::move(values);
}

std::string Sidecar::to_json() const {
  std::string out = "{\"name\":";
  out += obs::json_string(name_);
  out += ",\"schema\":\"syndog-bench/1\",";
  append_json_object(out, "scalars", scalars_);
  out += ",\"text\":{";
  bool first = true;
  for (const auto& [key, value] : text_) {
    if (!first) out += ',';
    first = false;
    out += obs::json_string(key);
    out += ':';
    out += obs::json_string(value);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [key, values] : series_) {
    if (!first) out += ',';
    first = false;
    out += obs::json_string(key);
    out += ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ',';
      out += obs::json_number(values[i]);
    }
    out += ']';
  }
  out += "},\"metrics\":";
  out += registry_.snapshot().to_json();
  out += "}\n";
  return out;
}

std::string Sidecar::write() const {
  const std::optional<std::string> dir = util::env_var("SYNDOG_BENCH_DIR");
  std::string path =
      dir && !dir->empty() ? *dir : std::string(".");
  path += "/BENCH_";
  path += name_;
  path += ".json";
  obs::write_file(path, to_json());
  return path;
}

Sidecar& open_sidecar(const std::string& name) {
  if (g_sidecar) {
    if (g_sidecar->name() != name) {
      std::string msg = "sidecar: '";
      msg += g_sidecar->name();
      msg += "' already open; cannot open '";
      msg += name;
      msg += '\'';
      throw std::logic_error(msg);
    }
    return *g_sidecar;
  }
  g_sidecar = std::make_unique<Sidecar>(name);
  std::atexit(write_sidecar_at_exit);
  return *g_sidecar;
}

Sidecar* sidecar() { return g_sidecar.get(); }

}  // namespace syndog::bench
