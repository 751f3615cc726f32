#include "workload/query_gen.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "engine/operators.h"

namespace dsps::workload {

using engine::FilterOp;
using engine::Query;
using engine::QueryPlan;
using engine::WindowAggregateOp;
using engine::WindowJoinOp;
using interest::Box;
using interest::Interval;

namespace {
/// Jitter of a hotspot-drawn interest center, as a fraction of the domain.
constexpr double kHotspotStddevFrac = 0.05;
/// Multiplicative load noise: exp(Gaussian(0, kLoadNoiseSigma)).
constexpr double kLoadNoiseSigma = 0.4;
}  // namespace

QueryGen::QueryGen(const Config& config,
                   const interest::StreamCatalog* catalog, common::Rng rng)
    : config_(config), catalog_(catalog), rng_(rng) {
  DSPS_CHECK(catalog != nullptr);
  DSPS_CHECK(catalog->size() > 0);
  stream_ids_ = catalog->streams();
  hotspots_.resize(stream_ids_.size());
  for (size_t s = 0; s < stream_ids_.size(); ++s) {
    hotspots_[s].resize(config.num_hotspots);
    size_t dims = catalog->stats(stream_ids_[s]).domain.size();
    for (auto& spot : hotspots_[s]) {
      spot.resize(dims);
      for (double& c : spot) c = rng_.NextDouble();
    }
  }
}

common::StreamId QueryGen::DrawStream() {
  size_t idx = rng_.Zipf(stream_ids_.size(), config_.stream_zipf_s);
  return stream_ids_[idx];
}

Box QueryGen::DrawInterestBox(common::StreamId stream) {
  const interest::StreamStats& stats = catalog_->stats(stream);
  size_t dims = stats.domain.size();
  size_t stream_idx =
      std::find(stream_ids_.begin(), stream_ids_.end(), stream) -
      stream_ids_.begin();
  // Center: hotspot + jitter, or uniform.
  std::vector<double> center(dims);
  if (!hotspots_[stream_idx].empty() && rng_.Bernoulli(config_.hotspot_prob)) {
    const auto& spot = hotspots_[stream_idx][rng_.NextUint64(
        hotspots_[stream_idx].size())];
    for (size_t d = 0; d < dims; ++d) {
      center[d] = std::clamp(
          spot[d] + rng_.Gaussian(0.0, kHotspotStddevFrac), 0.0, 1.0);
    }
  } else {
    for (double& c : center) c = rng_.NextDouble();
  }
  Box box(dims);
  int constrained = std::min<int>(config_.filter_dims, static_cast<int>(dims));
  for (size_t d = 0; d < dims; ++d) {
    const Interval& dom = stats.domain[d];
    if (static_cast<int>(d) < constrained) {
      double width = dom.length() *
                     rng_.Uniform(config_.width_min_frac, config_.width_max_frac);
      double c = dom.lo + center[d] * dom.length();
      box[d] = Interval{std::max(dom.lo, c - width / 2),
                        std::min(dom.hi, c + width / 2)};
    } else {
      box[d] = dom;  // unconstrained dimension
    }
  }
  return box;
}

Query QueryGen::Next() {
  Query q;
  q.id = next_id_++;
  q.tenant = config_.tenant;
  auto plan = std::make_unique<QueryPlan>();
  double roll = rng_.NextDouble();
  bool is_join = roll < config_.join_prob && catalog_->size() >= 1;
  bool is_agg = !is_join && roll < config_.join_prob + config_.agg_prob;

  auto add_filter = [&](common::StreamId stream) {
    Box box = DrawInterestBox(stream);
    const interest::StreamStats& stats = catalog_->stats(stream);
    std::vector<int> dims(box.size());
    for (size_t d = 0; d < box.size(); ++d) dims[d] = static_cast<int>(d);
    auto op = std::make_unique<FilterOp>(dims, box);
    double sel = interest::BoxVolume(box) / interest::BoxVolume(stats.domain);
    op->set_estimated_selectivity(sel);
    common::OperatorId id = plan->AddOperator(std::move(op));
    DSPS_CHECK(plan->BindStream(stream, id, 0).ok());
    q.interest.Add(stream, box);
    return id;
  };

  if (is_join) {
    common::StreamId s1 = DrawStream();
    common::StreamId s2 = DrawStream();
    common::OperatorId f1 = add_filter(s1);
    common::OperatorId f2 = add_filter(s2);
    auto join = std::make_unique<WindowJoinOp>(config_.window_s, 0, 0);
    join->set_estimated_selectivity(0.5);
    common::OperatorId j = plan->AddOperator(std::move(join));
    DSPS_CHECK(plan->Connect(f1, j, 0).ok());
    DSPS_CHECK(plan->Connect(f2, j, 1).ok());
  } else if (is_agg) {
    common::StreamId s = DrawStream();
    common::OperatorId f = add_filter(s);
    common::OperatorId a =
        plan->AddOperator(std::make_unique<WindowAggregateOp>(
            config_.window_s, WindowAggregateOp::Func::kAvg, 0, 1));
    DSPS_CHECK(plan->Connect(f, a, 0).ok());
  } else {
    add_filter(DrawStream());
  }
  DSPS_CHECK(plan->Validate().ok());

  // Load: CPU-seconds per second = arrival rate x inherent per-tuple cost,
  // with multiplicative noise (queries differ in constant factors the cost
  // model does not see).
  double arrival_tps = 0.0;
  for (common::StreamId s : q.interest.streams()) {
    const interest::StreamStats& stats = catalog_->stats(s);
    arrival_tps += stats.tuples_per_s *
                   interest::CoverageFraction(q.interest, s, stats.domain);
  }
  double noise = std::exp(rng_.Gaussian(0.0, kLoadNoiseSigma));
  q.load = std::max(1e-9, arrival_tps * plan->EstimateInherentCostPerTuple() *
                              noise * 1e3);
  q.plan = std::move(plan);
  return q;
}

QueryArrival QueryGen::NextArrival() {
  QueryArrival qa;
  clock_ += rng_.Exponential(config_.queries_per_s);
  qa.arrival_time = clock_;
  qa.query = Next();
  return qa;
}

std::vector<Query> QueryGen::Batch(int n) {
  std::vector<Query> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

}  // namespace dsps::workload
