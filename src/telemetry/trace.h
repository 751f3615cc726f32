#ifndef DSPS_TELEMETRY_TRACE_H_
#define DSPS_TELEMETRY_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/sketch.h"

namespace dsps::telemetry {

class FlightRecorder;

/// The stages of the paper's delay decomposition, as observed per traced
/// tuple: source emission, dissemination-tree hops across the WAN, the
/// gateway->delegate hop inside the entity, pipeline hops between
/// processors, CPU queue wait, operator execution, and result delivery.
enum class Stage : int32_t {
  /// Publication at the stream source (zero-length anchor span).
  kSourceEmit = 0,
  /// One dissemination-tree edge: link queueing + transmission + latency.
  kDisseminationHop,
  /// Gateway -> stream-delegate hop inside the entity (Figure 3).
  kEntityIngress,
  /// Inter-processor hop between fragments of one query.
  kPipelineHop,
  /// Time waiting for a processor's CPU to free up.
  kQueueWait,
  /// Simulated CPU time of operator execution.
  kExecute,
  /// Entity gateway -> client result shipping.
  kResultDeliver,
  /// End-to-end marker: start = source timestamp, end = result completion;
  /// its duration is the paper's d_k for this traced result.
  kResult,
  /// Anything recorded without a registered mapping.
  kOther,
};

/// Stable lower-case name used in exports ("source_emit", "queue_wait", ...).
const char* StageName(Stage stage);

/// Inverse of StageName; kOther for unknown names.
Stage StageFromName(std::string_view name);

/// One causal, simulated-time span of a traced tuple's journey.
struct Span {
  /// Trace this span belongs to (assigned at source publication).
  int64_t trace = 0;
  Stage stage = Stage::kOther;
  /// Simulated seconds.
  double start = 0.0;
  double end = 0.0;
  /// Context ids; meaning depends on the stage (network spans: sim nodes;
  /// processor spans: the processor's sim node twice).
  int32_t from = -1;
  int32_t to = -1;
  /// The query that produced the result (kResult spans only).
  int64_t query = -1;
  /// Owning tenant of that query (kResult spans of tenant-enabled runs
  /// only; -1 = untagged, omitted from JSON so tenant-free output is
  /// byte-identical).
  int64_t tenant = -1;

  double duration() const { return end - start; }
};

/// A point-in-time system event ("repartition", "tree_reorg", "crash",
/// ...). Instants are not tied to a traced tuple; they mark the control
/// plane's adaptation actions so exported traces show *why* the data
/// plane's latencies shifted.
struct Instant {
  std::string name;
  /// Simulated seconds.
  double t = 0.0;
  /// Affected sim node / entity id; -1 when not node-specific.
  int32_t node = -1;
  /// Event magnitude (queries migrated, entities moved, ...); 0 if n/a.
  double value = 0.0;
};

/// Append-only log of spans for a sampled subset of tuples.
///
/// Sampling is deterministic — every `sample_every_n`-th source
/// publication starts a trace — so traced runs remain reproducible, and a
/// sampling rate of 0 disables tracing entirely (the zero-cost default:
/// instrumentation sites check one pointer and one integer).
class TraceLog {
 public:
  /// Instants get their own budget: control-plane markers (crash,
  /// repartition, evict) are rare and must survive span-budget
  /// exhaustion in long runs. Once reached, further instants are counted
  /// (dropped_instants) but not stored.
  static constexpr size_t kMaxInstants = 1u << 16;

  struct Config {
    /// Trace every Nth published tuple; 0 disables tracing.
    int sample_every_n = 0;
    /// Hard cap on retained spans; once reached, further spans are
    /// counted (dropped_spans) but not stored.
    size_t max_spans = 1u << 20;
    /// Aggregate span durations into bounded per-stage quantile
    /// sketches as they are recorded.
    bool aggregate_stages = false;
    /// Keep raw spans (subject to max_spans). With aggregate_stages on
    /// and retain_spans off, every tuple can be traced at metro scale:
    /// the per-stage latency decomposition survives in O(buckets)
    /// memory while raw spans are not stored (and not counted dropped).
    bool retain_spans = true;
  };

  TraceLog() = default;
  explicit TraceLog(const Config& config) : config_(config) {}
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  bool enabled() const { return config_.sample_every_n > 0; }
  const Config& config() const { return config_; }

  /// Source-side sampling decision: counts one publication and returns a
  /// fresh nonzero trace id if it should be traced, 0 otherwise.
  int64_t MaybeStartTrace();

  /// Records one span (no-op when `trace` is 0 or the log is disabled).
  void Record(int64_t trace, Stage stage, double start, double end,
              int32_t from = -1, int32_t to = -1, int64_t query = -1,
              int64_t tenant = -1);

  /// Registers which Stage a simulated-network message type maps to, so
  /// the network layer can attribute in-flight time without knowing the
  /// upper layers' message enums.
  void MapMessageType(int type, Stage stage);
  Stage StageForMessageType(int type) const;

  /// Record() with the stage resolved from the message type.
  void RecordMessage(int64_t trace, int msg_type, double start, double end,
                     int32_t from, int32_t to);

  /// Records a system instant event (no-op when the log is disabled).
  /// Instants have their own kMaxInstants budget.
  void RecordInstant(std::string_view name, double t, int32_t node = -1,
                     double value = 0.0);

  /// Mirrors every recorded span and instant into `recorder`'s ring
  /// (even ones the budgets drop), so the recorder always holds the
  /// *latest* events. nullptr detaches.
  void AttachFlightRecorder(FlightRecorder* recorder) {
    flight_ = recorder;
  }
  FlightRecorder* flight_recorder() const { return flight_; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  /// Per-stage duration sketches (aggregate_stages mode only).
  const std::map<Stage, Sketch>& stage_sketches() const {
    return stage_sketches_;
  }
  int64_t traces_started() const { return next_trace_ - 1; }
  int64_t publications_seen() const { return publications_; }
  int64_t dropped_spans() const { return dropped_; }
  int64_t dropped_instants() const { return dropped_instants_; }

  /// Forgets all spans and resets the sampling phase (mapping kept).
  void Clear();

 private:
  Config config_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::map<Stage, Sketch> stage_sketches_;
  std::map<int, Stage> stage_of_type_;
  FlightRecorder* flight_ = nullptr;
  int64_t publications_ = 0;
  int64_t next_trace_ = 1;
  int64_t dropped_ = 0;
  int64_t dropped_instants_ = 0;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_TRACE_H_
