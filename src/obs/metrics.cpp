#include "syndog/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "syndog/obs/json.hpp"

namespace syndog::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (it->second.bounds() != upper_bounds) {
      throw std::invalid_argument("Registry: histogram '" +
                                  std::string(name) +
                                  "' re-registered with different bounds");
    }
    return it->second;
  }
  return histograms_
      .emplace(std::string(name), Histogram(std::move(upper_bounds)))
      .first->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h.bounds(), h.bucket_counts(), h.count(), h.sum()});
  }
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSample& c : counters) {
    if (!first) out.push_back(',');
    first = false;
    out += json_string(c.name) + ":" + json_number(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : gauges) {
    if (!first) out.push_back(',');
    first = false;
    out += json_string(g.name) + ":" + json_number(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : histograms) {
    if (!first) out.push_back(',');
    first = false;
    out += json_string(h.name) + ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out.push_back(',');
      out += json_number(h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out.push_back(',');
      out += json_number(h.counts[i]);
    }
    out += "],\"count\":" + json_number(h.count) +
           ",\"sum\":" + json_number(h.sum) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace syndog::obs
