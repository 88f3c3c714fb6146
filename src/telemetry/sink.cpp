#include "syndog/telemetry/sink.hpp"

#include <variant>

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

void TelemetrySink::push_snapshot(std::uint32_t agent, util::SimTime at,
                                  const obs::MetricsSnapshot& snapshot) {
  snapshot.for_each_scalar([&](std::string_view name, double value) {
    push(series_id(agent, metric_id(name)), at, value);
  });
}

void TelemetrySink::push_trace(std::uint32_t agent,
                               const obs::EventTracer& tracer) {
  const std::uint32_t m_syn = metric_id("trace.syn");
  const std::uint32_t m_syn_ack = metric_id("trace.syn_ack");
  const std::uint32_t m_k = metric_id("trace.k");
  const std::uint32_t m_y = metric_id("trace.y");
  const std::uint32_t m_alarm = metric_id("trace.alarm");
  const std::uint32_t m_health = metric_id("trace.health");
  tracer.for_each([&](const obs::Event& ev) {
    if (const auto* roll = std::get_if<obs::PeriodRollover>(&ev.payload)) {
      push(series_id(agent, m_syn), ev.at, static_cast<double>(roll->syn));
      push(series_id(agent, m_syn_ack), ev.at,
           static_cast<double>(roll->syn_ack));
    } else if (const auto* cusum =
                   std::get_if<obs::CusumUpdate>(&ev.payload)) {
      push(series_id(agent, m_k), ev.at, cusum->k);
      push(series_id(agent, m_y), ev.at, cusum->y);
    } else if (std::get_if<obs::AlarmRaised>(&ev.payload) != nullptr) {
      push(series_id(agent, m_alarm), ev.at, 1.0);
    } else if (std::get_if<obs::AlarmCleared>(&ev.payload) != nullptr) {
      push(series_id(agent, m_alarm), ev.at, 0.0);
    } else if (const auto* health =
                   std::get_if<obs::HealthTransition>(&ev.payload)) {
      push(series_id(agent, m_health), ev.at,
           static_cast<double>(health->to));
    }
  });
}

}  // namespace syndog::telemetry
