#ifndef CAD_GRAPH_EDGE_DELTA_H_
#define CAD_GRAPH_EDGE_DELTA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/snapshot.h"

namespace cad {

/// \brief One edge whose weight differs between two snapshots. Endpoints are
/// canonical (u < v); a weight of zero on either side encodes insertion
/// (weight_before == 0) or deletion (weight_after == 0).
struct ChangedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight_before = 0.0;
  double weight_after = 0.0;

  /// Signed weight delta w' - w; never zero for a ChangedEdge produced by
  /// DiffSnapshots.
  double delta() const { return weight_after - weight_before; }
};

/// \brief The rank-k difference between two consecutive snapshots, viewed as
/// a Laplacian update
///
///   L_after = L_before + B W B^T,
///
/// where column j of B is the signed incidence vector e_{u_j} - e_{v_j} of
/// changed edge j and W = diag(delta_j) holds the signed weight deltas. This
/// is the input to the incremental maintenance paths (exact Woodbury update
/// and churn-scoped approximate re-solves; DESIGN.md §12).
struct EdgeDelta {
  /// Changed edges in canonical (u, v) order — the order of
  /// Snapshot::edges(), which keeps downstream updates deterministic.
  std::vector<ChangedEdge> changes;
  /// Edge counts of the two snapshots, for churn accounting.
  size_t edges_before = 0;
  size_t edges_after = 0;

  /// The rank of the Laplacian update.
  size_t rank() const { return changes.size(); }

  /// Fraction of the (larger) edge set touched by this delta, the quantity
  /// compared against the incremental churn threshold. 0 for two empty
  /// snapshots.
  double ChurnRatio() const;
};

/// \brief Walks the union of two sorted edge lists once, in canonical
/// (u, v) order, calling visit(u, v, weight_before, weight_after) for every
/// pair present on either side; the weight is 0 on a side the pair is
/// absent from. The merge behind both DiffSnapshots and transition scoring.
template <typename Visit>
void MergeEdgeLists(const std::vector<Edge>& before,
                    const std::vector<Edge>& after, Visit&& visit) {
  // No canonical pair (u < v) packs to the all-ones key, so it marks an
  // exhausted list.
  constexpr uint64_t kEnd = ~uint64_t{0};
  size_t i = 0;
  size_t j = 0;
  while (i < before.size() || j < after.size()) {
    const uint64_t kb =
        i < before.size() ? NodePair{before[i].u, before[i].v}.Key() : kEnd;
    const uint64_t ka =
        j < after.size() ? NodePair{after[j].u, after[j].v}.Key() : kEnd;
    const uint64_t key = std::min(kb, ka);
    const double weight_before = kb == key ? before[i++].weight : 0.0;
    const double weight_after = ka == key ? after[j++].weight : 0.0;
    visit(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key),
          weight_before, weight_after);
  }
}

/// \brief Diffs two snapshots into the rank-k Laplacian update that maps
/// `before` to `after`.
///
/// Runs one merge pass (MergeEdgeLists) over the two sorted edge lists. The
/// snapshots may have different node counts (edges incident to nodes
/// beyond the smaller snapshot simply appear as insertions/deletions);
/// callers that need matching dimensions — the Woodbury path does — must
/// check num_nodes themselves.
EdgeDelta DiffSnapshots(const Snapshot& before, const Snapshot& after);

}  // namespace cad

#endif  // CAD_GRAPH_EDGE_DELTA_H_
