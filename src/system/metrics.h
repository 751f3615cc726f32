#ifndef DSPS_SYSTEM_METRICS_H_
#define DSPS_SYSTEM_METRICS_H_

#include <cstdint>

#include "telemetry/sketch.h"

namespace dsps::system {

/// End-to-end measurements of one experiment run, aggregated over all
/// entities and the whole simulated network.
struct SystemMetrics {
  /// Query results produced.
  int64_t results = 0;
  /// Result delays d_k (seconds).
  telemetry::Sketch latency;
  /// Performance Ratios PR_k = d_k / p_k (Section 4.1's metric).
  telemetry::Sketch pr;
  /// Bytes on inter-entity (WAN) links, including source->entity.
  int64_t wan_bytes = 0;
  /// Bytes on intra-entity (LAN) links.
  int64_t lan_bytes = 0;
  /// Bytes leaving stream sources (source load; the paper's scalability
  /// bottleneck under non-cooperative transfer).
  int64_t source_egress_bytes = 0;
  /// Max children any source serves directly.
  int max_source_fanout = 0;
  /// Tuples delivered to entities by the dissemination layer.
  int64_t delivered_tuples = 0;
  /// Load imbalance across entities: max entity load / mean entity load.
  double entity_load_imbalance = 1.0;
  /// Max/mean processor utilization across all entities.
  double max_processor_utilization = 0.0;
  double mean_processor_utilization = 0.0;
  /// Client-perceived result latency (only when clients are modeled):
  /// result timestamp -> arrival at the client's node over the WAN.
  telemetry::Sketch client_latency;
  int64_t client_results = 0;
  /// Queries currently without a home because re-home or admission
  /// failed (kept queued and retried — reported, never silently lost).
  int64_t unplaced_queries = 0;
  /// Messages the network dropped (injected faults + deliveries to nodes
  /// with no handler). Zero in fault-free runs.
  int64_t dropped_messages = 0;

  /// Kept as one-line forwards for callers that read quantiles this way
  /// (perfbench/).
  double latency_quantile(double q) const { return latency.Percentile(q); }
  double pr_quantile(double q) const { return pr.Percentile(q); }
};

}  // namespace dsps::system

#endif  // DSPS_SYSTEM_METRICS_H_
