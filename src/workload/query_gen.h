#ifndef DSPS_WORKLOAD_QUERY_GEN_H_
#define DSPS_WORKLOAD_QUERY_GEN_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "engine/plan.h"
#include "interest/measure.h"

namespace dsps::workload {

/// A generated query plus its arrival time in the query stream.
struct QueryArrival {
  engine::Query query;
  double arrival_time = 0.0;
};

/// Generates a continuous stream of queries ("query streams", Section
/// 3.2.1) with controllable interest locality, overlap and load skew.
///
/// Each query is one of:
///  * filter:      stream -> Filter(box) -> sink
///  * aggregate:   stream -> Filter(box) -> WindowAggregate -> sink
///  * join:        s1 -> Filter ┐
///                              ├ WindowJoin -> sink
///                 s2 -> Filter ┘
/// The filter boxes define the query's data interest. Interest centers are
/// drawn from per-stream hotspots (with probability hotspot_prob) or
/// uniformly, so overlapping interest clusters emerge naturally.
class QueryGen {
 public:
  struct Config {
    double join_prob = 0.15;
    double agg_prob = 0.35;
    /// Interest width per dimension, as a fraction of the domain.
    double width_min_frac = 0.05;
    double width_max_frac = 0.25;
    /// Interest locality.
    int num_hotspots = 5;
    double hotspot_prob = 0.7;
    /// Which stream(s) a query reads: Zipf over the catalog.
    double stream_zipf_s = 0.8;
    /// Query stream rate (queries per second of simulated time).
    double queries_per_s = 1.0;
    /// Dimensions the filter constrains (first k numeric dims).
    int filter_dims = 2;
    /// Window length for joins/aggregates.
    double window_s = 10.0;
    /// Tenant stamped on every generated query (multi-tenant workloads
    /// run one tagged generator per tenant; 0 = the implicit tenant).
    int32_t tenant = 0;
  };

  QueryGen(const Config& config, const interest::StreamCatalog* catalog,
           common::Rng rng);

  /// Generates the next query; ids are sequential from 1.
  engine::Query Next();

  /// Generates the next query with an exponential interarrival timestamp.
  QueryArrival NextArrival();

  /// Convenience: `n` queries (ignoring arrival times).
  std::vector<engine::Query> Batch(int n);

 private:
  /// Draws an interest box for `stream` and remembers it for the plan.
  interest::Box DrawInterestBox(common::StreamId stream);
  common::StreamId DrawStream();

  Config config_;
  const interest::StreamCatalog* catalog_;
  common::Rng rng_;
  common::QueryId next_id_ = 1;
  double clock_ = 0.0;
  /// hotspots_[stream][h] = hotspot center in [0,1]^dims (domain fractions).
  std::vector<std::vector<std::vector<double>>> hotspots_;
  std::vector<common::StreamId> stream_ids_;
};

}  // namespace dsps::workload

#endif  // DSPS_WORKLOAD_QUERY_GEN_H_
