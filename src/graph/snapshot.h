#ifndef CAD_GRAPH_SNAPSHOT_H_
#define CAD_GRAPH_SNAPSHOT_H_

#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief One snapshot G_t in the form every CAD consumer reads (paper
/// §2–3): the node count, the canonical edges sorted by (u, v), the weighted
/// degrees and the volume.
///
/// Degrees and volume are summed once, at construction, in sorted-edge
/// order, so they depend only on the edge set and never on how the graph
/// was assembled: two equal graphs built in different insertion orders give
/// bit-identical snapshots, Laplacians and scores. Build one when a window
/// closes, a file loads or a checkpoint is read, and hand it to the
/// commute-time engines, the scorer, the differ and the checkpoint writer.
///
/// The only mutation is GrowTo, which appends isolated nodes.
class Snapshot {
 public:
  /// The empty snapshot on zero nodes.
  Snapshot() = default;

  /// The snapshot of `graph`. Deliberately implicit: every Snapshot
  /// parameter also accepts the WeightedGraph builder, converted here.
  Snapshot(const WeightedGraph& graph);  // NOLINT(runtime/explicit)

  /// A snapshot on `num_nodes` nodes from an already sorted edge list.
  /// Returns InvalidArgument unless every edge has u < v < num_nodes, the
  /// pairs are strictly ascending, and every weight is finite and positive.
  [[nodiscard]] static Result<Snapshot> FromSortedEdges(
      size_t num_nodes, std::vector<Edge> edges);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  /// Canonical (u < v) edges, strictly ascending by (u, v).
  const std::vector<Edge>& edges() const { return edges_; }

  /// Weighted degree of every node, each summed over its neighbours in
  /// ascending order.
  const std::vector<double>& weighted_degrees() const { return degrees_; }

  /// Volume V_G = 2 * (sum of edge weights, in sorted-edge order).
  double volume() const { return volume_; }

  /// Grows the node set to `num_nodes` with isolated nodes (zero degree);
  /// the edges and the volume are unchanged. Shrinking is rejected.
  [[nodiscard]] Status GrowTo(size_t num_nodes);

  bool operator==(const Snapshot& other) const {
    return num_nodes_ == other.num_nodes_ && edges_ == other.edges_;
  }

 private:
  Snapshot(size_t num_nodes, std::vector<Edge> edges);

  size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<double> degrees_;
  double volume_ = 0.0;
};

/// Symmetric adjacency matrix in CSR form.
CsrMatrix ToAdjacencyCsr(const Snapshot& snapshot);

/// Combinatorial Laplacian L = D - A in CSR form, with `regularization`
/// added to every diagonal entry. A small positive regularization makes L
/// strictly positive definite, which the commute-time engines use to handle
/// disconnected snapshots (see DESIGN.md).
CsrMatrix ToLaplacianCsr(const Snapshot& snapshot, double regularization = 0.0);

/// Dense Laplacian; small graphs only.
DenseMatrix ToLaplacianDense(const Snapshot& snapshot,
                             double regularization = 0.0);

}  // namespace cad

#endif  // CAD_GRAPH_SNAPSHOT_H_
