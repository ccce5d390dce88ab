#include "graph/edge_delta.h"

#include <algorithm>

namespace cad {

double EdgeDelta::ChurnRatio() const {
  const size_t denom = std::max(edges_before, edges_after);
  if (denom == 0) return changes.empty() ? 0.0 : 1.0;
  return static_cast<double>(changes.size()) / static_cast<double>(denom);
}

EdgeDelta DiffSnapshots(const WeightedGraph& before,
                        const WeightedGraph& after) {
  return DiffSnapshots(before.Edges(), after.Edges());
}

EdgeDelta DiffSnapshots(const std::vector<Edge>& old_edges,
                        const std::vector<Edge>& new_edges) {
  EdgeDelta delta;
  delta.edges_before = old_edges.size();
  delta.edges_after = new_edges.size();

  // Every insertion and deletion has a nonzero weight on exactly one side,
  // so one comparison finds insertions, deletions and weight changes alike.
  MergeEdgeLists(old_edges, new_edges,
                 [&](NodeId u, NodeId v, double weight_before,
                     double weight_after) {
                   if (weight_before != weight_after) {
                     delta.changes.push_back(
                         ChangedEdge{u, v, weight_before, weight_after});
                   }
                 });
  return delta;
}

}  // namespace cad
