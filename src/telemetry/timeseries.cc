#include "telemetry/timeseries.h"

#include <utility>

#include "telemetry/json.h"

namespace dsps::telemetry {

void TimeSeriesRecorder::AddGaugeProbe(std::string name, Labels labels,
                                       std::function<double()> probe) {
  Series s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.probe = std::move(probe);
  s.rate = false;
  series_.push_back(std::move(s));
}

void TimeSeriesRecorder::AddRateProbe(std::string name, Labels labels,
                                      std::function<double()> probe) {
  Series s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.probe = std::move(probe);
  s.rate = true;
  series_.push_back(std::move(s));
}

void TimeSeriesRecorder::Sample(double now) {
  if (times_.size() >= kMaxSamples) {
    ++dropped_samples_;
    return;
  }
  for (Series& s : series_) {
    double v = s.probe();
    if (s.rate) {
      double dt = now - last_time_;
      double rate = (s.has_prev && dt > 0.0) ? (v - s.prev_value) / dt : 0.0;
      s.prev_value = v;
      s.has_prev = true;
      s.values.push_back(rate);
    } else {
      s.values.push_back(v);
    }
  }
  times_.push_back(now);
  last_time_ = now;
}

namespace {

void WriteLabelsObject(JsonWriter* w, const Labels& labels) {
  w->BeginObject();
  for (const auto& [key, value] : labels) {
    w->Key(key).String(value);
  }
  w->EndObject();
}

}  // namespace

void TimeSeriesRecorder::AppendJson(JsonWriter* w,
                                    const Labels& extra_labels) const {
  w->BeginObject();
  w->Key("interval_s").Number(config_.interval_s);
  w->Key("labels");
  WriteLabelsObject(w, extra_labels);
  w->Key("t").BeginArray();
  for (double t : times_) w->Number(t);
  w->EndArray();
  w->Key("series").BeginArray();
  for (const Series& s : series_) {
    w->BeginObject();
    w->Key("name").String(s.name);
    w->Key("labels");
    WriteLabelsObject(w, s.labels);
    w->Key("points").BeginArray();
    for (double v : s.values) w->Number(v);
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string TimeSeriesRecorder::ToJson(const Labels& extra_labels) const {
  JsonWriter w;
  AppendJson(&w, extra_labels);
  return w.TakeString();
}

}  // namespace dsps::telemetry
