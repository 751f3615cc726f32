#include "telemetry/watchdog.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "telemetry/flight_recorder.h"

namespace dsps::telemetry {

namespace {

/// Sliding-window length (spike detectors).
constexpr int kWindow = 16;
/// Ticks observed before a detector may fire.
constexpr int kWarmup = 8;
/// EWMA smoothing factor.
constexpr double kEwmaAlpha = 0.3;
/// Spike: deviations-from-median multiplier.
constexpr double kMadK = 8.0;
/// Spike: sample must also exceed kRelFactor * EWMA.
constexpr double kRelFactor = 2.0;
/// Spike: absolute floor a sample must reach (suppresses "spikes" within
/// noise of zero).
constexpr double kMinAbs = 1.0;
/// Spike: MAD lower bound so an all-constant window (MAD = 0) does not
/// make every deviation infinite sigmas.
constexpr double kMadFloor = 1e-9;
/// Ticks a detector stays quiet after firing.
constexpr int kCooldown = 8;
/// Threshold / growth: consecutive ticks required.
constexpr int kSustain = 3;

// Median of a small window (copy + sort: deterministic, O(w log w) on a
// watchdog cadence, not a hot path).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

void Watchdog::AddDetector(std::string name, Kind kind, Probe probe,
                           double limit) {
  DSPS_CHECK(probe != nullptr);
  Detector d;
  d.state.name = std::move(name);
  d.state.kind = kind;
  d.probe = std::move(probe);
  d.limit = limit;
  detectors_.push_back(std::move(d));
  states_.push_back(detectors_.back().state);
}

void Watchdog::AddSpikeDetector(std::string name, Probe probe) {
  AddDetector(std::move(name), Kind::kSpike, std::move(probe), 0.0);
}

void Watchdog::AddRateDetector(std::string name, Probe cumulative,
                               double max_rate_per_s) {
  AddDetector(std::move(name), Kind::kRate, std::move(cumulative),
              max_rate_per_s);
}

void Watchdog::AddThresholdDetector(std::string name, Probe probe,
                                    double limit) {
  AddDetector(std::move(name), Kind::kThreshold, std::move(probe), limit);
}

void Watchdog::AddGrowthDetector(std::string name, Probe probe, double floor) {
  AddDetector(std::move(name), Kind::kGrowth, std::move(probe), floor);
}

void Watchdog::AddIncreaseDetector(std::string name, Probe cumulative) {
  AddDetector(std::move(name), Kind::kIncrease, std::move(cumulative), 0.0);
}

void Watchdog::Trigger(Detector& d, double now, double value) {
  d.state.triggers += 1;
  d.state.last_trigger_t = now;
  anomalies_ += 1;
  d.cooldown_left = kCooldown;
  if (config_.metrics != nullptr) {
    if (total_counter_ == nullptr) {
      // Interned lazily so anomaly-free runs export no anomaly series at
      // all — quiet snapshots stay byte-identical to pre-watchdog ones.
      total_counter_ = config_.metrics->counter("anomaly.total");
    }
    total_counter_->Increment();
    config_.metrics
        ->counter("anomaly.events",
                  MakeLabels({{"detector", d.state.name}}))
        ->Increment();
  }
  if (config_.trace != nullptr) {
    config_.trace->RecordInstant("anomaly." + d.state.name, now, -1, value);
  }
  if (config_.flight != nullptr) {
    config_.flight->RecordInstant("anomaly." + d.state.name, now, -1, value,
                                  FlightRecorder::EventKind::kAnomaly);
  }
}

void Watchdog::Tick(double now) {
  ticks_ += 1;
  for (size_t i = 0; i < detectors_.size(); ++i) {
    Detector& d = detectors_[i];
    double x = d.probe();
    d.state.last_value = x;
    d.samples_seen += 1;
    bool armed = d.cooldown_left == 0;
    if (d.cooldown_left > 0) d.cooldown_left -= 1;
    switch (d.state.kind) {
      case Kind::kSpike: {
        bool warm = d.samples_seen > kWarmup &&
                    static_cast<int>(d.window.size()) >= kWarmup;
        if (warm && armed) {
          double med = Median({d.window.begin(), d.window.end()});
          std::vector<double> dev;
          dev.reserve(d.window.size());
          for (double w : d.window) dev.push_back(std::fabs(w - med));
          double mad = std::max(Median(std::move(dev)), kMadFloor);
          bool robust_outlier = x - med > kMadK * mad;
          bool ewma_outlier = x > kRelFactor * std::max(d.ewma, kMadFloor);
          if (robust_outlier && ewma_outlier && x >= kMinAbs) {
            Trigger(d, now, x);
          }
        }
        if (!d.ewma_init) {
          d.ewma = x;
          d.ewma_init = true;
        } else {
          d.ewma = kEwmaAlpha * x + (1.0 - kEwmaAlpha) * d.ewma;
        }
        d.window.push_back(x);
        while (static_cast<int>(d.window.size()) > kWindow) {
          d.window.pop_front();
        }
        break;
      }
      case Kind::kRate: {
        if (d.has_prev && now > d.prev_t && armed) {
          double rate = (x - d.prev) / (now - d.prev_t);
          if (rate > d.limit) Trigger(d, now, rate);
        }
        d.prev = x;
        d.prev_t = now;
        d.has_prev = true;
        break;
      }
      case Kind::kThreshold: {
        d.streak = x >= d.limit ? d.streak + 1 : 0;
        if (d.streak >= kSustain && armed) {
          Trigger(d, now, x);
          d.streak = 0;
        }
        break;
      }
      case Kind::kGrowth: {
        d.streak = d.has_prev && x > d.prev ? d.streak + 1 : 0;
        d.prev = x;
        d.has_prev = true;
        if (d.streak >= kSustain && x >= d.limit && armed) {
          Trigger(d, now, x);
          d.streak = 0;
        }
        break;
      }
      case Kind::kIncrease: {
        bool fire = d.has_prev && x > d.prev && armed;
        d.prev = x;
        d.has_prev = true;
        if (fire) Trigger(d, now, x);
        break;
      }
    }
    states_[i] = d.state;
  }
}

int64_t Watchdog::triggers(std::string_view name) const {
  for (const DetectorState& s : states_) {
    if (s.name == name) return s.triggers;
  }
  return 0;
}

}  // namespace dsps::telemetry
