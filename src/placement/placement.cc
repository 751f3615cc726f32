#include "placement/placement.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"

namespace dsps::placement {

namespace {

/// Utilization slack of PR-aware placement: among processors whose
/// post-placement utilization is within this of the best, the
/// lowest-traffic one wins. Keeps heuristic 1 (balance) primary and
/// heuristic 3 (traffic) subordinate, per Section 4.1.
constexpr double kBalanceSlack = 0.10;

common::Status ValidateInput(const PlacementInput& input) {
  if (input.processors.empty()) {
    return common::Status::InvalidArgument("no processors");
  }
  if (input.distribution_limit < 1) {
    return common::Status::InvalidArgument("distribution_limit < 1");
  }
  return common::Status::OK();
}

/// Index of `proc` in input.processors, or -1.
int ProcIndex(const PlacementInput& input, common::ProcessorId proc) {
  for (size_t i = 0; i < input.processors.size(); ++i) {
    if (input.processors[i].id == proc) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

// ------------------------------------------------------------- PrAware

common::Result<Placement> PrAwarePlacement::Place(const PlacementInput& input) {
  DSPS_RETURN_IF_ERROR(ValidateInput(input));
  Placement placement;
  std::vector<double> load(input.processors.size());
  for (size_t i = 0; i < input.processors.size(); ++i) {
    load[i] = input.processors[i].base_load;
  }
  // Processors already used per query (for the distribution limit) and the
  // placement of each fragment (to resolve upstream homes).
  std::map<common::QueryId, std::set<int>> used_by_query;
  std::map<common::QueryId, int> last_placed;
  double total_capacity = 0.0;
  for (const auto& p : input.processors) total_capacity += p.capacity;
  double mean_rate = 1e-9;
  for (const auto& f : input.fragments) mean_rate += f.input_rate_bytes_s;
  mean_rate /= std::max<size_t>(1, input.fragments.size());

  for (const FragmentSpec& frag : input.fragments) {
    std::set<int>& used = used_by_query[frag.query];
    // Heuristic 2: if the query already touches `distribution_limit`
    // processors, only those are candidates.
    bool restricted =
        static_cast<int>(used.size()) >= input.distribution_limit;
    // The processor this fragment's input arrives at (traffic heuristic).
    int home = -1;
    auto home_it = input.input_home.find(frag.id);
    if (home_it != input.input_home.end()) {
      home = ProcIndex(input, home_it->second);
    } else if (auto last_it = last_placed.find(frag.query);
               last_it != last_placed.end()) {
      // Pipeline successor: its input comes from the query's previously
      // placed fragment.
      home = last_it->second;
    }
    // Pass 1 (heuristic 1): the best achievable post-placement utilization
    // among the allowed candidates.
    double best_util = std::numeric_limits<double>::max();
    for (size_t i = 0; i < input.processors.size(); ++i) {
      if (restricted && used.count(static_cast<int>(i)) == 0) continue;
      double util_after =
          (load[i] + frag.cpu_load) / input.processors[i].capacity;
      best_util = std::min(best_util, util_after);
    }
    // Pass 2 (heuristic 3): among processors within the balance slack,
    // minimize communication traffic; ties go to the less utilized.
    int best = -1;
    double best_traffic = std::numeric_limits<double>::max();
    double best_candidate_util = std::numeric_limits<double>::max();
    for (size_t i = 0; i < input.processors.size(); ++i) {
      if (restricted && used.count(static_cast<int>(i)) == 0) continue;
      const ProcessorSpec& proc = input.processors[i];
      double util_after = (load[i] + frag.cpu_load) / proc.capacity;
      if (util_after > best_util + kBalanceSlack) continue;
      double traffic = 0.0;
      if (home >= 0 && home != static_cast<int>(i)) {
        traffic += frag.input_rate_bytes_s / mean_rate;
      }
      // Opening a new processor for this query costs future pipeline hops.
      if (!used.empty() && used.count(static_cast<int>(i)) == 0) {
        traffic += 0.5;
      }
      if (traffic < best_traffic ||
          (traffic == best_traffic && util_after < best_candidate_util)) {
        best_traffic = traffic;
        best_candidate_util = util_after;
        best = static_cast<int>(i);
      }
    }
    DSPS_CHECK(best >= 0);
    placement[frag.id] = input.processors[best].id;
    load[best] += frag.cpu_load;
    used.insert(best);
    last_placed[frag.query] = best;
  }
  return placement;
}

// ------------------------------------------------------------ LoadOnly

common::Result<Placement> LoadOnlyPlacement::Place(
    const PlacementInput& input) {
  DSPS_RETURN_IF_ERROR(ValidateInput(input));
  Placement placement;
  std::vector<double> util(input.processors.size());
  for (size_t i = 0; i < input.processors.size(); ++i) {
    util[i] = input.processors[i].base_load / input.processors[i].capacity;
  }
  // Largest fragments first, to the least-utilized processor.
  std::vector<const FragmentSpec*> order;
  for (const auto& f : input.fragments) order.push_back(&f);
  std::stable_sort(order.begin(), order.end(),
                   [](const FragmentSpec* a, const FragmentSpec* b) {
                     return a->cpu_load > b->cpu_load;
                   });
  for (const FragmentSpec* frag : order) {
    size_t best =
        std::min_element(util.begin(), util.end()) - util.begin();
    placement[frag->id] = input.processors[best].id;
    util[best] += frag->cpu_load / input.processors[best].capacity;
  }
  return placement;
}

// -------------------------------------------------------------- Random

RandomPlacement::RandomPlacement(uint64_t seed) : rng_(seed) {}

common::Result<Placement> RandomPlacement::Place(const PlacementInput& input) {
  DSPS_RETURN_IF_ERROR(ValidateInput(input));
  Placement placement;
  for (const FragmentSpec& frag : input.fragments) {
    size_t i = rng_.NextUint64(input.processors.size());
    placement[frag.id] = input.processors[i].id;
  }
  return placement;
}

// ------------------------------------------------------------- Metrics

PlacementMetrics EvaluatePlacement(const PlacementInput& input,
                                   const Placement& placement) {
  PlacementMetrics m;
  std::vector<double> load(input.processors.size());
  for (size_t i = 0; i < input.processors.size(); ++i) {
    load[i] = input.processors[i].base_load;
  }
  std::map<common::QueryId, std::set<common::ProcessorId>> used;
  std::map<common::QueryId, common::ProcessorId> prev;
  for (const FragmentSpec& frag : input.fragments) {
    auto it = placement.find(frag.id);
    DSPS_CHECK(it != placement.end());
    int idx = ProcIndex(input, it->second);
    DSPS_CHECK(idx >= 0);
    load[idx] += frag.cpu_load;
    used[frag.query].insert(it->second);
    auto home_it = input.input_home.find(frag.id);
    if (home_it != input.input_home.end()) {
      if (home_it->second != it->second) {
        m.cross_traffic_bytes_s += frag.input_rate_bytes_s;
      }
    } else if (auto prev_it = prev.find(frag.query);
               prev_it != prev.end() && prev_it->second != it->second) {
      // Pipeline hop across processors.
      m.cross_traffic_bytes_s += frag.input_rate_bytes_s;
    }
    prev[frag.query] = it->second;
  }
  double sum_util = 0.0;
  for (size_t i = 0; i < input.processors.size(); ++i) {
    double u = load[i] / input.processors[i].capacity;
    m.max_utilization = std::max(m.max_utilization, u);
    sum_util += u;
  }
  m.mean_utilization = sum_util / input.processors.size();
  for (const auto& [query, procs] : used) {
    m.max_processors_per_query =
        std::max(m.max_processors_per_query, static_cast<int>(procs.size()));
    if (static_cast<int>(procs.size()) > input.distribution_limit) {
      ++m.limit_violations;
    }
  }
  return m;
}

}  // namespace dsps::placement
