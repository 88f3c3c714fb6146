#include "syndog/telemetry/sink.hpp"

namespace syndog::telemetry {

TelemetrySink::TelemetrySink(std::ostream& out, std::size_t block_capacity)
    : writer_(out, block_capacity) {}

std::uint32_t TelemetrySink::register_agent(std::string_view name,
                                            std::uint32_t as_number) {
  return writer_.add_agent(name, as_number);
}

std::uint32_t TelemetrySink::metric_id(std::string_view name) {
  const auto it = metric_ids_.find(name);
  if (it != metric_ids_.end()) return it->second;
  const std::uint32_t id = writer_.add_metric(name);
  metric_ids_.emplace(std::string(name), id);
  return id;
}

std::uint32_t TelemetrySink::series_id(std::uint32_t agent,
                                       std::uint32_t metric) {
  const auto key = std::make_pair(agent, metric);
  const auto it = series_ids_.find(key);
  if (it != series_ids_.end()) return it->second;
  const std::uint32_t id = writer_.open_series(agent, metric);
  series_ids_.emplace(key, id);
  return id;
}

}  // namespace syndog::telemetry
