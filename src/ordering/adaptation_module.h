#ifndef DSPS_ORDERING_ADAPTATION_MODULE_H_
#define DSPS_ORDERING_ADAPTATION_MODULE_H_

#include <map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace dsps::ordering {

/// One candidate downstream hop for a tuple: operator `op` of the query,
/// hosted on processor `proc`.
struct Candidate {
  common::ProcessorId proc = common::kInvalidProcessor;
  common::OperatorId op = -1;
};

/// The platform-independent Adaptation Module of Section 4.2.
///
/// It sits between the processing engine and the network, intercepting a
/// fragment's output stream. For each query whose commutable operators
/// (e.g., a conjunction of filters) are spread over multiple processors,
/// the AM keeps a candidate set of downstream (processor, operator) pairs
/// and continuously-updated statistics: EWMA operator selectivities and
/// costs, and processor backlogs. Each output tuple is routed to the
/// candidate minimizing the classic adaptive-ordering rank
///     cost / (1 - selectivity)
/// inflated by the target processor's queueing backlog, so the ordering of
/// distributed operators adapts to selectivity and load drift at runtime.
class AdaptationModule {
 public:
  struct Config {
    /// EWMA weight of a new observation.
    double ema_alpha = 0.2;
  };

  AdaptationModule();
  explicit AdaptationModule(const Config& config);

  /// Registers (replacing) the candidate downstream set generated when a
  /// query fragment is (re)placed onto a processor.
  void SetCandidates(common::QueryId query, std::vector<Candidate> candidates);

  /// The registered candidates, or nullptr.
  const std::vector<Candidate>* candidates(common::QueryId query) const;

  /// Feeds one observed pass/drop outcome of `op` (1 tuple in, `outputs`
  /// tuples out) into the selectivity EWMA.
  void ReportSelectivity(common::QueryId query, common::OperatorId op,
                         double observed);

  /// Feeds one observed per-tuple processing cost of `op`.
  void ReportCost(common::QueryId query, common::OperatorId op,
                  double cost_seconds);

  /// Updates a processor's backlog (seconds of queued work).
  void ReportBacklog(common::ProcessorId proc, double backlog_seconds);

  double EstimatedSelectivity(common::QueryId query,
                              common::OperatorId op) const;
  double EstimatedCost(common::QueryId query, common::OperatorId op) const;
  double Backlog(common::ProcessorId proc) const;

  /// Chooses the next hop for a tuple of `query` that has already visited
  /// the operators in `done`. NotFound when every candidate was visited.
  common::Result<Candidate> NextHop(
      common::QueryId query, const std::vector<common::OperatorId>& done) const;

  /// The full visit order implied by the *current* estimates, ignoring
  /// backlogs (what a static optimizer would emit right now).
  common::Result<std::vector<Candidate>> CurrentOrder(
      common::QueryId query) const;

 private:
  struct OpStats {
    double selectivity;
    double cost;
    bool seen = false;
  };
  double Rank(common::QueryId query, const Candidate& c,
              bool include_load) const;

  Config config_;
  std::map<common::QueryId, std::vector<Candidate>> candidates_;
  std::map<std::pair<common::QueryId, common::OperatorId>, OpStats> stats_;
  std::map<common::ProcessorId, double> backlog_;
};

}  // namespace dsps::ordering

#endif  // DSPS_ORDERING_ADAPTATION_MODULE_H_
