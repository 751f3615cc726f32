#include "engine/query_builder.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/operators.h"

namespace dsps::engine {

QueryBuilder::QueryBuilder(common::QueryId id) : id_(id) {}

QueryBuilder& QueryBuilder::From(common::StreamId stream,
                                 const interest::StreamCatalog& catalog) {
  DSPS_CHECK_MSG(!has_source_, "From() called twice");
  DSPS_CHECK_MSG(catalog.Contains(stream), "unknown stream %d", stream);
  stream_ = stream;
  domain_ = catalog.stats(stream).domain;
  selection_ = domain_;
  has_source_ = true;
  return *this;
}

QueryBuilder& QueryBuilder::Where(int dim, double lo, double hi) {
  DSPS_CHECK_MSG(has_source_, "Where() before From()");
  DSPS_CHECK_MSG(dim >= 0 && static_cast<size_t>(dim) < selection_.size(),
                 "dimension %d out of range", dim);
  selection_[dim] = selection_[dim].Intersect(interest::Interval{lo, hi});
  return *this;
}

common::Result<Query> QueryBuilder::Build() {
  if (!has_source_) {
    return common::Status::FailedPrecondition("QueryBuilder without From()");
  }
  if (interest::BoxEmpty(selection_)) {
    return common::Status::InvalidArgument("selection is empty");
  }
  Query q;
  q.id = id_;
  auto plan = std::make_shared<QueryPlan>();
  std::vector<int> dims(selection_.size());
  for (size_t d = 0; d < selection_.size(); ++d) dims[d] = static_cast<int>(d);
  auto filter = std::make_unique<FilterOp>(dims, selection_);
  double dom_vol = interest::BoxVolume(domain_);
  if (dom_vol > 0) {
    filter->set_estimated_selectivity(interest::BoxVolume(selection_) /
                                      dom_vol);
  }
  common::OperatorId f = plan->AddOperator(std::move(filter));
  DSPS_RETURN_IF_ERROR(plan->BindStream(stream_, f, 0));
  q.interest.Add(stream_, selection_);
  DSPS_RETURN_IF_ERROR(plan->Validate());
  q.plan = std::move(plan);
  return q;
}

}  // namespace dsps::engine
