#ifndef DSPS_TELEMETRY_WATCHDOG_H_
#define DSPS_TELEMETRY_WATCHDOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace dsps::telemetry {

class FlightRecorder;

/// Online anomaly watchdog: a set of deterministic detectors evaluated
/// against read-only probes on a fixed simulated-time cadence (the owner
/// schedules Tick), flagging pathologies — repartition thrash, retry
/// storms, admission-queue growth, SLO burn — while the run is live
/// instead of in a post-hoc trawl.
///
/// Detector kinds:
///  - Spike: robust outlier test over a 16-tick sliding window — fires
///    when the probe exceeds the window median by 8 median-absolute-
///    deviations AND 2x the EWMA. The MAD floor and the 8-tick warmup
///    guarantee zero triggers on quiet, steady runs.
///  - Rate: fires when a cumulative counter's per-second rate between
///    ticks exceeds a limit (retry storms).
///  - Threshold: fires when the probe holds at/above a limit for 3
///    consecutive ticks (SLO burn).
///  - Growth: fires when the probe strictly grows for 3 consecutive
///    ticks and sits at/above a floor (queue buildup).
///  - Increase: fires on any strict increase of a cumulative counter
///    that is zero on healthy runs (evictions, lost queries).
///
/// Every trigger increments anomaly counters (anomaly.total plus
/// anomaly.events{detector=...} when a registry is attached), records an
/// "anomaly.<name>" trace instant, and mirrors the event into the flight
/// recorder; a per-detector 8-tick cooldown stops one sustained incident
/// from flooding the log. All state is a pure function of the probe values,
/// so fixed-seed runs produce identical anomaly streams.
class Watchdog {
 public:
  struct Config {
    MetricsRegistry* metrics = nullptr;
    TraceLog* trace = nullptr;
    FlightRecorder* flight = nullptr;
  };

  /// Read-only view into the owner's state; must be deterministic and
  /// side-effect free.
  using Probe = std::function<double()>;

  enum class Kind : int8_t { kSpike, kRate, kThreshold, kGrowth, kIncrease };

  struct DetectorState {
    std::string name;
    Kind kind = Kind::kSpike;
    int64_t triggers = 0;
    double last_trigger_t = -1.0;
    double last_value = 0.0;
  };

  Watchdog() = default;
  explicit Watchdog(const Config& config) : config_(config) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void AddSpikeDetector(std::string name, Probe probe);
  /// `cumulative` must be non-decreasing; fires when its rate exceeds
  /// `max_rate_per_s`.
  void AddRateDetector(std::string name, Probe cumulative,
                       double max_rate_per_s);
  void AddThresholdDetector(std::string name, Probe probe, double limit);
  void AddGrowthDetector(std::string name, Probe probe, double floor);
  void AddIncreaseDetector(std::string name, Probe cumulative);

  /// Evaluates every detector at simulated time `now`.
  void Tick(double now);

  int64_t ticks() const { return ticks_; }
  /// Total triggers across all detectors.
  int64_t anomalies() const { return anomalies_; }
  const std::vector<DetectorState>& detectors() const { return states_; }
  /// Trigger count for one detector (0 if unknown).
  int64_t triggers(std::string_view name) const;

 private:
  struct Detector {
    DetectorState state;
    Probe probe;
    // Spike state.
    std::deque<double> window;
    double ewma = 0.0;
    bool ewma_init = false;
    // Rate / increase state.
    double prev = 0.0;
    double prev_t = 0.0;
    bool has_prev = false;
    // Rate limit or threshold limit or growth floor.
    double limit = 0.0;
    // Threshold / growth streaks.
    int streak = 0;
    int cooldown_left = 0;
    int samples_seen = 0;
  };

  void AddDetector(std::string name, Kind kind, Probe probe, double limit);
  void Trigger(Detector& d, double now, double value);

  Config config_;
  std::vector<Detector> detectors_;
  /// Mirrors detectors_' public state (stable snapshot for callers).
  std::vector<DetectorState> states_;
  int64_t ticks_ = 0;
  int64_t anomalies_ = 0;
  Counter* total_counter_ = nullptr;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_WATCHDOG_H_
