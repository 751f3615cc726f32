#include "partition/graph_index.h"

#include <algorithm>

#include "common/check.h"

namespace dsps::partition {

QueryGraphIndex::QueryGraphIndex(const interest::StreamCatalog* catalog,
                                 double min_edge_weight)
    : catalog_(catalog), min_edge_weight_(min_edge_weight) {
  DSPS_CHECK(catalog != nullptr);
}

void QueryGraphIndex::AddQuery(const engine::Query& query) {
  DSPS_CHECK(query.id != common::kInvalidQuery);
  if (Contains(query.id)) RemoveQuery(query.id);
  VertexInfo info;
  info.load = query.load;
  info.interest = query.interest;
  info.streams = query.interest.streams();
  // Candidates: queries with a genuinely-overlapping box on some catalog
  // stream (queried before inserting our own boxes, so no self-match).
  std::vector<int64_t> candidates;
  for (common::StreamId s : info.streams) {
    if (!catalog_->Contains(s)) continue;
    auto it = stream_index_.find(s);
    if (it == stream_index_.end()) continue;
    const std::vector<interest::Box>* boxes = query.interest.boxes_for(s);
    for (const interest::Box& b : *boxes) it->second.MatchOverlap(b, &candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (int64_t cand : candidates) {
    auto other = vertices_.find(static_cast<common::QueryId>(cand));
    DSPS_DCHECK(other != vertices_.end());
    double w = interest::SharedRateBytesPerSec(info.interest,
                                               other->second.interest, *catalog_);
    if (w <= min_edge_weight_) continue;
    EdgeInfo edge;
    edge.weight = w;
    edge.first_shared = FirstSharedStream(info.streams, other->second.streams);
    edges_[MakeEdgeKey(query.id, other->first)] = edge;
    info.neighbors.insert(other->first);
    other->second.neighbors.insert(query.id);
  }
  // Register the new query's boxes for future deltas.
  for (common::StreamId s : info.streams) {
    if (!catalog_->Contains(s)) continue;
    auto it = stream_index_.find(s);
    if (it == stream_index_.end()) {
      const size_t dims = catalog_->stats(s).domain.size();
      it = stream_index_.emplace(s, interest::BoxIndex(dims)).first;
    }
    const std::vector<interest::Box>* boxes = query.interest.boxes_for(s);
    for (const interest::Box& b : *boxes) it->second.Insert(query.id, b);
  }
  vertices_[query.id] = std::move(info);
}

interest::IndexStats QueryGraphIndex::StreamIndexStats() const {
  interest::IndexStats stats;
  for (const auto& [stream, index] : stream_index_) {
    index.AddStatsTo(&stats);
  }
  return stats;
}

void QueryGraphIndex::RemoveQuery(common::QueryId id) {
  auto it = vertices_.find(id);
  if (it == vertices_.end()) return;
  for (common::QueryId nb : it->second.neighbors) {
    edges_.erase(MakeEdgeKey(id, nb));
    auto nb_it = vertices_.find(nb);
    DSPS_DCHECK(nb_it != vertices_.end());
    nb_it->second.neighbors.erase(id);
  }
  for (common::StreamId s : it->second.streams) {
    auto idx = stream_index_.find(s);
    if (idx != stream_index_.end()) idx->second.Remove(id);
  }
  vertices_.erase(it);
}

QueryGraph QueryGraphIndex::Graph() const {
  QueryGraph g;
  std::map<common::QueryId, int> rank;
  for (const auto& [id, info] : vertices_) {
    rank[id] = g.AddVertex(id, info.load);
  }
  struct PendingEdge {
    common::StreamId first_shared;
    int a, b;
    double w;
  };
  std::vector<PendingEdge> pending;
  pending.reserve(edges_.size());
  for (const auto& [key, edge] : edges_) {
    // Ranks ascend with query ids, so the id-ordered key is rank-ordered.
    pending.push_back(PendingEdge{edge.first_shared, rank.at(key.first),
                                  rank.at(key.second), edge.weight});
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingEdge& x, const PendingEdge& y) {
              if (x.first_shared != y.first_shared) {
                return x.first_shared < y.first_shared;
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  for (const PendingEdge& e : pending) g.AddEdge(e.a, e.b, e.w);
  return g;
}

}  // namespace dsps::partition
