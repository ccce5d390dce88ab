#include "graph/edge_delta.h"

#include <algorithm>

namespace cad {

double EdgeDelta::ChurnRatio() const {
  const size_t denom = std::max(edges_before, edges_after);
  if (denom == 0) return changes.empty() ? 0.0 : 1.0;
  return static_cast<double>(changes.size()) / static_cast<double>(denom);
}

EdgeDelta DiffSnapshots(const Snapshot& before, const Snapshot& after) {
  EdgeDelta delta;
  delta.edges_before = before.num_edges();
  delta.edges_after = after.num_edges();

  // Every insertion and deletion has a nonzero weight on exactly one side,
  // so one comparison finds insertions, deletions and weight changes alike.
  MergeEdgeLists(before.edges(), after.edges(),
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
