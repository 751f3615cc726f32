#include "telemetry/registry.h"

#include <algorithm>

#include "telemetry/json.h"

namespace dsps::telemetry {

Labels MakeLabels(
    std::initializer_list<std::pair<std::string, std::string>> labels) {
  Labels out(labels);
  std::sort(out.begin(), out.end());
  return out;
}

const char* MetricKindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry::Key MetricsRegistry::MakeKey(std::string_view name,
                                              Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

Counter* MetricsRegistry::counter(std::string_view name, Labels labels) {
  auto [it, inserted] =
      counters_.try_emplace(MakeKey(name, std::move(labels)), nullptr);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, Labels labels) {
  auto [it, inserted] =
      gauges_.try_emplace(MakeKey(name, std::move(labels)), nullptr);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

HistogramMetric* MetricsRegistry::histogram(std::string_view name,
                                            Labels labels) {
  auto [it, inserted] =
      histograms_.try_emplace(MakeKey(name, std::move(labels)), nullptr);
  if (inserted) it->second = std::make_unique<HistogramMetric>();
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(size());
  for (const auto& [key, metric] : counters_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(metric->value());
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, metric] : gauges_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricSample::Kind::kGauge;
    s.value = metric->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, metric] : histograms_) {
    MetricSample s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = MetricSample::Kind::kHistogram;
    s.count = metric->count();
    s.mean = metric->mean();
    s.p50 = metric->p50();
    s.p95 = metric->p95();
    s.p99 = metric->p99();
    s.max = metric->max();
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.labels != b.labels) return a.labels < b.labels;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return snap;
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          const Labels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginArray();
  for (const MetricSample& s : samples) {
    w.BeginObject();
    w.Key("name").String(s.name);
    if (!s.labels.empty()) {
      w.Key("labels").BeginObject();
      for (const auto& [k, v] : s.labels) w.Key(k).String(v);
      w.EndObject();
    }
    w.Key("kind").String(MetricKindName(s.kind));
    if (s.kind == MetricSample::Kind::kHistogram) {
      w.Key("count").Int(s.count);
      w.Key("mean").Number(s.mean);
      w.Key("p50").Number(s.p50);
      w.Key("p95").Number(s.p95);
      w.Key("p99").Number(s.p99);
      w.Key("max").Number(s.max);
    } else {
      w.Key("value").Number(s.value);
    }
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

}  // namespace dsps::telemetry
