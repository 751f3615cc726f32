#include "ordering/adaptation_module.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dsps::ordering {

namespace {

/// How strongly a processor's backlog (seconds of queued work) inflates
/// its candidates' ranks.
constexpr double kLoadWeight = 1.0;
/// Selectivity prior used before any observation.
constexpr double kPriorSelectivity = 0.5;
/// Cost prior (seconds/tuple) used before any observation.
constexpr double kPriorCost = 1e-6;

}  // namespace

AdaptationModule::AdaptationModule() : AdaptationModule(Config()) {}
AdaptationModule::AdaptationModule(const Config& config) : config_(config) {
  DSPS_CHECK(config.ema_alpha > 0 && config.ema_alpha <= 1.0);
}

void AdaptationModule::SetCandidates(common::QueryId query,
                                     std::vector<Candidate> candidates) {
  candidates_[query] = std::move(candidates);
}

const std::vector<Candidate>* AdaptationModule::candidates(
    common::QueryId query) const {
  auto it = candidates_.find(query);
  return it == candidates_.end() ? nullptr : &it->second;
}

void AdaptationModule::ReportSelectivity(common::QueryId query,
                                         common::OperatorId op,
                                         double observed) {
  auto [it, inserted] = stats_.try_emplace(
      {query, op}, OpStats{kPriorSelectivity, kPriorCost, false});
  OpStats& s = it->second;
  if (!s.seen) {
    s.selectivity = observed;
    s.seen = true;
  } else {
    s.selectivity =
        (1 - config_.ema_alpha) * s.selectivity + config_.ema_alpha * observed;
  }
}

void AdaptationModule::ReportCost(common::QueryId query,
                                  common::OperatorId op, double cost_seconds) {
  auto [it, inserted] = stats_.try_emplace(
      {query, op}, OpStats{kPriorSelectivity, kPriorCost, false});
  OpStats& s = it->second;
  s.cost =
      (1 - config_.ema_alpha) * s.cost + config_.ema_alpha * cost_seconds;
}

void AdaptationModule::ReportBacklog(common::ProcessorId proc,
                                     double backlog_seconds) {
  backlog_[proc] = backlog_seconds;
}

double AdaptationModule::EstimatedSelectivity(common::QueryId query,
                                              common::OperatorId op) const {
  auto it = stats_.find({query, op});
  return it == stats_.end() ? kPriorSelectivity : it->second.selectivity;
}

double AdaptationModule::EstimatedCost(common::QueryId query,
                                       common::OperatorId op) const {
  auto it = stats_.find({query, op});
  return it == stats_.end() ? kPriorCost : it->second.cost;
}

double AdaptationModule::Backlog(common::ProcessorId proc) const {
  auto it = backlog_.find(proc);
  return it == backlog_.end() ? 0.0 : it->second;
}

double AdaptationModule::Rank(common::QueryId query, const Candidate& c,
                              bool include_load) const {
  double sel = EstimatedSelectivity(query, c.op);
  double cost = EstimatedCost(query, c.op);
  // Classic rank: cost / (1 - selectivity). A selective (low sel) cheap
  // operator should run first. Clamp selectivity away from 1 so
  // pass-through operators sort last, not NaN.
  double drop = std::max(1e-6, 1.0 - std::min(sel, 1.0 - 1e-6));
  double rank = cost / drop;
  if (include_load) {
    rank *= 1.0 + kLoadWeight * Backlog(c.proc);
  }
  return rank;
}

common::Result<Candidate> AdaptationModule::NextHop(
    common::QueryId query, const std::vector<common::OperatorId>& done) const {
  const std::vector<Candidate>* cands = candidates(query);
  if (cands == nullptr) {
    return common::Status::NotFound("no candidates for query");
  }
  const Candidate* best = nullptr;
  double best_rank = std::numeric_limits<double>::max();
  for (const Candidate& c : *cands) {
    if (std::find(done.begin(), done.end(), c.op) != done.end()) continue;
    double rank = Rank(query, c, /*include_load=*/true);
    if (rank < best_rank) {
      best_rank = rank;
      best = &c;
    }
  }
  if (best == nullptr) {
    return common::Status::NotFound("all candidates visited");
  }
  return *best;
}

common::Result<std::vector<Candidate>> AdaptationModule::CurrentOrder(
    common::QueryId query) const {
  const std::vector<Candidate>* cands = candidates(query);
  if (cands == nullptr) {
    return common::Status::NotFound("no candidates for query");
  }
  std::vector<Candidate> order = *cands;
  std::stable_sort(order.begin(), order.end(),
                   [&](const Candidate& a, const Candidate& b) {
                     return Rank(query, a, false) < Rank(query, b, false);
                   });
  return order;
}

}  // namespace dsps::ordering
