#ifndef DSPS_ENGINE_QUERY_BUILDER_H_
#define DSPS_ENGINE_QUERY_BUILDER_H_

#include "common/ids.h"
#include "common/status.h"
#include "engine/plan.h"
#include "interest/measure.h"

namespace dsps::engine {

/// Fluent construction of a single-stream selection, deriving the query's
/// data interest from its filter automatically:
///
///   auto q = QueryBuilder(42)
///                .From(ticker, catalog)            // stream + domains
///                .Where(0, 10, 20)                 // symbol in [10, 20]
///                .Where(1, 50, 100)                // price in [50, 100]
///                .Build();
///
/// Build() validates the plan; errors surface as a failed Result rather
/// than a malformed query.
class QueryBuilder {
 public:
  explicit QueryBuilder(common::QueryId id);

  /// Binds the source stream; `catalog` supplies the attribute domains so
  /// unconstrained dimensions default to the full range. Must be called
  /// before Where.
  QueryBuilder& From(common::StreamId stream,
                     const interest::StreamCatalog& catalog);

  /// Adds the conjunct `lo <= attribute[dim] <= hi` to the selection.
  QueryBuilder& Where(int dim, double lo, double hi);

  /// Finalizes into a Query whose plan is one filter over the selection.
  /// Fails if From() was never called or the selection is empty.
  common::Result<Query> Build();

 private:
  common::QueryId id_;
  common::StreamId stream_ = common::kInvalidStream;
  interest::Box domain_;
  interest::Box selection_;
  bool has_source_ = false;
};

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_QUERY_BUILDER_H_
