#include "partition/partitioner.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace dsps::partition {

namespace {

/// Multilevel coarsening stops when at most this many vertices remain (or
/// no further matching progress is possible).
constexpr int kCoarsenTo = 64;
/// Refinement sweeps per level.
constexpr int kRefinePasses = 4;
/// Independent greedy-growing restarts at the coarsest level; the best
/// (balance, cut) result wins. Growth is seed-sensitive on small graphs,
/// so a few restarts buy a lot of robustness.
constexpr int kInitRestarts = 4;
static_assert(kInitRestarts >= 1);
/// Seed of the matching and growing draws.
constexpr uint64_t kSeed = 1;

common::Status ValidateArgs(const QueryGraph& graph, int k) {
  if (k <= 0) return common::Status::InvalidArgument("k must be positive");
  if (graph.num_vertices() == 0) {
    return common::Status::InvalidArgument("empty graph");
  }
  return common::Status::OK();
}

/// Indices of vertices sorted by descending weight.
std::vector<int> ByDescendingWeight(const QueryGraph& graph) {
  std::vector<int> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.vertex_weight(a) > graph.vertex_weight(b);
  });
  return order;
}

}  // namespace

// -------------------------------------------------------- LoadOnlyPartitioner

common::Result<std::vector<int>> LoadOnlyPartitioner::Partition(
    const QueryGraph& graph, int k, double /*tolerance*/) {
  DSPS_RETURN_IF_ERROR(ValidateArgs(graph, k));
  std::vector<int> assignment(graph.num_vertices(), 0);
  std::vector<double> part_weight(k, 0.0);
  for (int v : ByDescendingWeight(graph)) {
    int lightest = static_cast<int>(
        std::min_element(part_weight.begin(), part_weight.end()) -
        part_weight.begin());
    assignment[v] = lightest;
    part_weight[lightest] += graph.vertex_weight(v);
  }
  return assignment;
}

// ----------------------------------------------------------- GreedyGrow init

std::vector<int> GreedyGrowPartition(const QueryGraph& graph, int k,
                                     double tolerance,
                                     common::Rng* rng) {
  // Classic greedy graph growing (GGP): grow one part at a time from a
  // random seed, always absorbing the unassigned vertex with the highest
  // affinity (edge weight) to the growing part, until the part reaches its
  // ideal weight. This keeps natural clusters contiguous, unlike per-vertex
  // round-robin placement which shreds them across parts.
  (void)tolerance;  // growth targets the ideal weight directly
  const int n = graph.num_vertices();
  const double ideal = graph.total_vertex_weight() / std::max(1, k);
  std::vector<int> assignment(n, -1);
  std::vector<double> affinity(n, 0.0);  // affinity of v to the current part
  int unassigned = n;
  for (int p = 0; p < k - 1 && unassigned > 0; ++p) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    double part_weight = 0.0;
    // Random unassigned seed.
    int seed = -1;
    if (rng != nullptr) {
      int skip = static_cast<int>(rng->NextUint64(unassigned));
      for (int v = 0; v < n; ++v) {
        if (assignment[v] == -1 && skip-- == 0) {
          seed = v;
          break;
        }
      }
    } else {
      for (int v = 0; v < n && seed < 0; ++v) {
        if (assignment[v] == -1) seed = v;
      }
    }
    DSPS_CHECK(seed >= 0);
    int next = seed;
    while (next >= 0 && part_weight < ideal) {
      assignment[next] = p;
      part_weight += graph.vertex_weight(next);
      --unassigned;
      for (const auto& [nb, w] : graph.neighbors(next)) {
        if (assignment[nb] == -1) affinity[nb] += w;
      }
      // Highest-affinity unassigned vertex; falls back to any unassigned
      // (disconnected frontier) so growth never stalls.
      next = -1;
      double best_aff = -1.0;
      for (int v = 0; v < n; ++v) {
        if (assignment[v] == -1 && affinity[v] > best_aff) {
          best_aff = affinity[v];
          next = v;
        }
      }
    }
  }
  // Remainder forms the last part.
  for (int v = 0; v < n; ++v) {
    if (assignment[v] == -1) assignment[v] = k - 1;
  }
  return assignment;
}

// ---------------------------------------------------------------- FM refine

int FmRefine(const QueryGraph& graph, std::vector<int>* assignment, int k,
             double tolerance, int passes) {
  DSPS_CHECK(assignment != nullptr);
  const int n = graph.num_vertices();
  DSPS_CHECK(static_cast<int>(assignment->size()) == n);
  const double cap =
      tolerance * graph.total_vertex_weight() / std::max(1, k);
  std::vector<double> part_weight = graph.PartWeights(*assignment, k);
  int total_moves = 0;
  std::vector<double> affinity(k, 0.0);
  for (int pass = 0; pass < passes; ++pass) {
    int moves = 0;
    for (int v = 0; v < n; ++v) {
      int home = (*assignment)[v];
      std::fill(affinity.begin(), affinity.end(), 0.0);
      for (const auto& [nb, w] : graph.neighbors(v)) {
        affinity[(*assignment)[nb]] += w;
      }
      double w_v = graph.vertex_weight(v);
      int best = home;
      double best_gain = 0.0;
      for (int p = 0; p < k; ++p) {
        if (p == home) continue;
        if (part_weight[p] + w_v > cap) continue;
        double gain = affinity[p] - affinity[home];
        if (gain > best_gain) {
          // Strictly cut-improving move.
          best = p;
          best_gain = gain;
        } else if (gain == 0.0 && best == home &&
                   part_weight[home] > part_weight[p] + w_v) {
          // Cut-neutral move that strictly improves balance.
          best = p;
        }
      }
      if (best != home) {
        (*assignment)[v] = best;
        part_weight[home] -= w_v;
        part_weight[best] += w_v;
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }
  return total_moves;
}

// --------------------------------------------------------------- Multilevel

namespace {

/// One coarsening level: the coarse graph plus the fine->coarse map.
struct Level {
  QueryGraph graph;
  std::vector<int> fine_to_coarse;
};

/// Heavy-edge matching coarsening step. Returns false if no pair matched
/// (graph cannot shrink further).
bool Coarsen(const QueryGraph& fine, common::Rng* rng, Level* out) {
  const int n = fine.num_vertices();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  std::vector<int> match(n, -1);
  int matched_pairs = 0;
  for (int v : order) {
    if (match[v] != -1) continue;
    int best = -1;
    double best_w = -1.0;
    for (const auto& [nb, w] : fine.neighbors(v)) {
      if (match[nb] == -1 && w > best_w) {
        best = nb;
        best_w = w;
      }
    }
    if (best >= 0) {
      match[v] = best;
      match[best] = v;
      ++matched_pairs;
    }
  }
  if (matched_pairs == 0) return false;
  out->fine_to_coarse.assign(n, -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    if (out->fine_to_coarse[v] != -1) continue;
    out->fine_to_coarse[v] = next;
    if (match[v] != -1) out->fine_to_coarse[match[v]] = next;
    ++next;
  }
  // Coarse vertices: weight sums; queries are representative-only.
  std::vector<double> cw(next, 0.0);
  for (int v = 0; v < n; ++v) cw[out->fine_to_coarse[v]] += fine.vertex_weight(v);
  for (int c = 0; c < next; ++c) out->graph.AddVertex(-1, cw[c]);
  // Aggregate edges (drop self-loops).
  for (int v = 0; v < n; ++v) {
    for (const auto& [nb, w] : fine.neighbors(v)) {
      if (nb <= v) continue;
      int a = out->fine_to_coarse[v], b = out->fine_to_coarse[nb];
      if (a != b) out->graph.AddEdge(a, b, w);
    }
  }
  return true;
}

}  // namespace

common::Result<std::vector<int>> MultilevelPartitioner::Partition(
    const QueryGraph& graph, int k, double tolerance) {
  DSPS_RETURN_IF_ERROR(ValidateArgs(graph, k));
  common::Rng rng(kSeed);
  // Coarsening phase.
  std::vector<Level> levels;
  const QueryGraph* current = &graph;
  while (current->num_vertices() > std::max(kCoarsenTo, k)) {
    Level level;
    if (!Coarsen(*current, &rng, &level)) break;
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }
  // Initial partition at the coarsest level: several greedy-growing
  // restarts, keeping the best (feasible-balance first, then cut).
  std::vector<int> assignment;
  double best_cut = 0.0;
  double best_imb = 0.0;
  for (int restart = 0; restart < kInitRestarts; ++restart) {
    std::vector<int> candidate =
        GreedyGrowPartition(*current, k, tolerance, &rng);
    FmRefine(*current, &candidate, k, tolerance, kRefinePasses);
    double cut = current->EdgeCut(candidate);
    double imb = current->Imbalance(candidate, k);
    bool feasible = imb <= tolerance + 1e-9;
    bool best_feasible = !assignment.empty() && best_imb <= tolerance + 1e-9;
    bool better = assignment.empty() ||
                  (feasible && !best_feasible) ||
                  (feasible == best_feasible &&
                   (cut < best_cut ||
                    (cut == best_cut && imb < best_imb)));
    if (better) {
      assignment = std::move(candidate);
      best_cut = cut;
      best_imb = imb;
    }
  }
  // Uncoarsening with per-level refinement.
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const QueryGraph& finer =
        (it + 1 == levels.rend()) ? graph : (it + 1)->graph;
    std::vector<int> fine_assignment(finer.num_vertices());
    for (int v = 0; v < finer.num_vertices(); ++v) {
      fine_assignment[v] = assignment[it->fine_to_coarse[v]];
    }
    assignment = std::move(fine_assignment);
    FmRefine(finer, &assignment, k, tolerance, kRefinePasses);
  }
  return assignment;
}

}  // namespace dsps::partition
