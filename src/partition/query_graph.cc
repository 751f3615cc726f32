#include "partition/query_graph.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/check.h"
#include "interest/box_index.h"

namespace dsps::partition {

int QueryGraph::AddVertex(common::QueryId query, double weight) {
  DSPS_CHECK(weight >= 0);
  queries_.push_back(query);
  weights_.push_back(weight);
  adj_.emplace_back();
  total_weight_ += weight;
  return static_cast<int>(weights_.size()) - 1;
}

void QueryGraph::AddEdge(int a, int b, double weight) {
  DSPS_CHECK(a >= 0 && a < num_vertices());
  DSPS_CHECK(b >= 0 && b < num_vertices());
  DSPS_CHECK(a != b);
  DSPS_CHECK(weight >= 0);
  if (weight <= 0) return;
  // Accumulate if the edge exists already.
  for (auto& [n, w] : adj_[a]) {
    if (n == b) {
      w += weight;
      for (auto& [n2, w2] : adj_[b]) {
        if (n2 == a) w2 += weight;
      }
      total_edge_weight_ += weight;
      return;
    }
  }
  adj_[a].emplace_back(b, weight);
  adj_[b].emplace_back(a, weight);
  total_edge_weight_ += weight;
}

double QueryGraph::EdgeCut(const std::vector<int>& assignment) const {
  DSPS_CHECK(assignment.size() == weights_.size());
  double cut = 0.0;
  for (int v = 0; v < num_vertices(); ++v) {
    for (const auto& [n, w] : adj_[v]) {
      if (n > v && assignment[v] != assignment[n]) cut += w;
    }
  }
  return cut;
}

std::vector<double> QueryGraph::PartWeights(const std::vector<int>& assignment,
                                            int k) const {
  DSPS_CHECK(assignment.size() == weights_.size());
  std::vector<double> part(k, 0.0);
  for (int v = 0; v < num_vertices(); ++v) {
    DSPS_CHECK(assignment[v] >= 0 && assignment[v] < k);
    part[assignment[v]] += weights_[v];
  }
  return part;
}

double QueryGraph::Imbalance(const std::vector<int>& assignment, int k) const {
  if (num_vertices() == 0 || total_weight_ <= 0) return 1.0;
  std::vector<double> part = PartWeights(assignment, k);
  double ideal = total_weight_ / k;
  double max_part = *std::max_element(part.begin(), part.end());
  return max_part / ideal;
}

common::StreamId FirstSharedStream(const std::vector<common::StreamId>& a,
                                   const std::vector<common::StreamId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return a[i];
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return common::kInvalidStream;
}

QueryGraph QueryGraph::Build(std::span<const engine::Query> queries,
                             const interest::StreamCatalog& catalog,
                             double min_edge_weight,
                             interest::IndexStats* index_stats) {
  QueryGraph g;
  const int n = static_cast<int>(queries.size());
  for (const engine::Query& q : queries) g.AddVertex(q.id, q.load);
  // Per-query sorted stream lists (needed for edge-ordering replay below).
  std::vector<std::vector<common::StreamId>> streams_of(n);
  for (int i = 0; i < n; ++i) streams_of[i] = queries[i].interest.streams();
  // Inverted stream -> query index. Only catalog streams can contribute
  // edge weight (SharedRateBytesPerSec sums over the catalog), so only
  // they get a spatial index; a pair overlapping nowhere in the catalog
  // has zero shared rate and never forms an edge.
  std::map<common::StreamId, interest::BoxIndex> index_of;
  for (int i = 0; i < n; ++i) {
    for (common::StreamId s : streams_of[i]) {
      if (!catalog.Contains(s)) continue;
      auto it = index_of.find(s);
      if (it == index_of.end()) {
        const size_t dims = catalog.stats(s).domain.size();
        it = index_of.emplace(s, interest::BoxIndex(dims)).first;
      }
      const std::vector<interest::Box>* boxes = queries[i].interest.boxes_for(s);
      for (const interest::Box& b : *boxes) it->second.Insert(i, b);
    }
  }
  // Candidate pairs: only those with genuinely-overlapping boxes on some
  // stream are measured (the O(n^2) all-shared-pairs scan measured every
  // co-subscribed pair, overlap or not). Each surviving edge remembers the
  // first stream both queries subscribe to — the point the old pairwise
  // scan measured it at — so edges can be emitted in the identical order
  // and the resulting adjacency lists (hence every downstream partition)
  // are bit-identical.
  struct PendingEdge {
    common::StreamId first_shared;
    int a, b;
    double w;
  };
  std::vector<PendingEdge> edges;
  std::unordered_set<int64_t> measured;
  std::vector<int64_t> candidates;
  for (const auto& [stream, index] : index_of) {
    for (int a = 0; a < n; ++a) {
      const std::vector<interest::Box>* boxes =
          queries[a].interest.boxes_for(stream);
      if (boxes == nullptr) continue;
      candidates.clear();
      for (const interest::Box& box : *boxes) {
        index.MatchOverlap(box, &candidates);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (int64_t cand : candidates) {
        int b = static_cast<int>(cand);
        if (b <= a) continue;
        if (!measured.insert(static_cast<int64_t>(a) * n + b).second) continue;
        double w = interest::SharedRateBytesPerSec(queries[a].interest,
                                                   queries[b].interest, catalog);
        if (w > min_edge_weight) {
          edges.push_back(PendingEdge{
              FirstSharedStream(streams_of[a], streams_of[b]), a, b, w});
        }
      }
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const PendingEdge& x, const PendingEdge& y) {
              if (x.first_shared != y.first_shared) {
                return x.first_shared < y.first_shared;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  for (const PendingEdge& e : edges) g.AddEdge(e.a, e.b, e.w);
  if (index_stats != nullptr) {
    for (const auto& [stream, index] : index_of) {
      index.AddStatsTo(index_stats);
    }
  }
  return g;
}

}  // namespace dsps::partition
