#include "telemetry/trace.h"

#include "telemetry/flight_recorder.h"

namespace dsps::telemetry {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSourceEmit:
      return "source_emit";
    case Stage::kDisseminationHop:
      return "dissemination_hop";
    case Stage::kEntityIngress:
      return "entity_ingress";
    case Stage::kPipelineHop:
      return "pipeline_hop";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kExecute:
      return "execute";
    case Stage::kResultDeliver:
      return "result_deliver";
    case Stage::kResult:
      return "result";
    case Stage::kOther:
      return "other";
  }
  return "other";
}

Stage StageFromName(std::string_view name) {
  for (Stage s : {Stage::kSourceEmit, Stage::kDisseminationHop,
                  Stage::kEntityIngress, Stage::kPipelineHop,
                  Stage::kQueueWait, Stage::kExecute, Stage::kResultDeliver,
                  Stage::kResult}) {
    if (name == StageName(s)) return s;
  }
  return Stage::kOther;
}

int64_t TraceLog::MaybeStartTrace() {
  if (config_.sample_every_n <= 0) return 0;
  int64_t seq = publications_++;
  if (seq % config_.sample_every_n != 0) return 0;
  return next_trace_++;
}

void TraceLog::Record(int64_t trace, Stage stage, double start, double end,
                      int32_t from, int32_t to, int64_t query,
                      int64_t tenant) {
  if (trace == 0 || !enabled()) return;
  Span span{trace, stage, start, end, from, to, query, tenant};
  if (flight_ != nullptr) flight_->RecordSpan(span);
  if (config_.aggregate_stages) {
    stage_sketches_[stage].Add(span.duration());
  }
  if (!config_.retain_spans) return;  // Aggregated by design, not dropped.
  if (spans_.size() >= config_.max_spans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

void TraceLog::MapMessageType(int type, Stage stage) {
  stage_of_type_[type] = stage;
}

Stage TraceLog::StageForMessageType(int type) const {
  auto it = stage_of_type_.find(type);
  return it == stage_of_type_.end() ? Stage::kOther : it->second;
}

void TraceLog::RecordMessage(int64_t trace, int msg_type, double start,
                             double end, int32_t from, int32_t to) {
  Record(trace, StageForMessageType(msg_type), start, end, from, to);
}

void TraceLog::RecordInstant(std::string_view name, double t, int32_t node,
                             double value) {
  if (!enabled()) return;
  if (flight_ != nullptr) flight_->RecordInstant(name, t, node, value);
  if (instants_.size() >= kMaxInstants) {
    ++dropped_instants_;
    return;
  }
  instants_.push_back(Instant{std::string(name), t, node, value});
}

}  // namespace dsps::telemetry
