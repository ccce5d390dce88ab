#ifndef CAD_GRAPH_GRAPH_H_
#define CAD_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief Node identifier. Nodes are dense integers [0, num_nodes).
using NodeId = uint32_t;

/// \brief An undirected weighted edge in canonical orientation (u < v).
struct Edge {
  NodeId u;
  NodeId v;
  double weight;

  bool operator==(const Edge& other) const {
    return u == other.u && v == other.v && weight == other.weight;
  }
};

/// \brief Canonical (u < v) pair identifying an undirected edge slot,
/// independent of weight. Used as a key into score maps.
struct NodePair {
  NodeId u;
  NodeId v;

  /// Normalizes the orientation so that u <= v.
  static NodePair Make(NodeId a, NodeId b) {
    return a <= b ? NodePair{a, b} : NodePair{b, a};
  }

  uint64_t Key() const { return (static_cast<uint64_t>(u) << 32) | v; }

  bool operator==(const NodePair& other) const {
    return u == other.u && v == other.v;
  }
  bool operator<(const NodePair& other) const { return Key() < other.Key(); }
};

/// \brief Undirected weighted graph on a fixed node set.
///
/// Matches the paper's framework (§2): the vertex set is fixed, edge weights
/// are non-negative, and "no edge" is represented by weight zero. Self-loops
/// are disallowed. The graph is mutable during construction; adjacency views
/// (CSR) are built on demand.
class WeightedGraph {
 public:
  /// Creates an edgeless graph on `num_nodes` nodes.
  explicit WeightedGraph(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Grows the node set to `num_nodes`; new nodes are isolated. Shrinking is
  /// rejected (edges could dangle). Growing never touches existing edges, so
  /// volume and degrees of existing nodes are unchanged.
  [[nodiscard]] Status GrowTo(size_t num_nodes);

  /// Number of edges with nonzero weight.
  size_t num_edges() const { return weights_.size(); }

  /// Sets the weight of edge {u, v}. Weight 0 deletes the edge. Returns
  /// InvalidArgument for self-loops, negative weights, or out-of-range ids.
  [[nodiscard]] Status SetEdge(NodeId u, NodeId v, double weight);

  /// Adds `delta` to the weight of edge {u, v}; the result must stay >= 0.
  [[nodiscard]] Status AddEdgeWeight(NodeId u, NodeId v, double delta);

  /// Weight of edge {u, v}; 0 if absent. Self-queries return 0.
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True if {u, v} has nonzero weight.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) != 0.0; }

  /// All edges in canonical orientation, sorted by (u, v).
  std::vector<Edge> Edges() const;

  /// Weighted degree (sum of incident edge weights) of every node.
  std::vector<double> WeightedDegrees() const;

  /// Unweighted degree (neighbor count) of every node.
  std::vector<size_t> Degrees() const;

  /// Graph volume V_G = sum of weighted degrees = 2 * total edge weight.
  double Volume() const;

  /// Symmetric adjacency matrix in CSR form.
  CsrMatrix ToAdjacencyCsr() const;

  /// Combinatorial Laplacian L = D - A in CSR form, with `regularization`
  /// added to every diagonal entry. A small positive regularization makes L
  /// strictly positive definite, which the commute-time engines use to handle
  /// disconnected snapshots (see DESIGN.md).
  CsrMatrix ToLaplacianCsr(double regularization = 0.0) const;

  /// ToLaplacianCsr for a caller that already holds this graph's Edges(),
  /// which `edges` must be; saves re-deriving the sorted edge list.
  CsrMatrix ToLaplacianCsr(const std::vector<Edge>& edges,
                           double regularization) const;

  /// Dense adjacency matrix; small graphs only.
  DenseMatrix ToAdjacencyDense() const;

  /// Dense Laplacian; small graphs only.
  DenseMatrix ToLaplacianDense(double regularization = 0.0) const;

  /// Sorted neighbor lists (adjacency view shared by BFS/Dijkstra).
  struct Neighbor {
    NodeId node;
    double weight;
  };
  std::vector<std::vector<Neighbor>> AdjacencyLists() const;

  /// Summary string: "WeightedGraph(n=…, m=…, volume=…)".
  std::string ToString() const;

  bool operator==(const WeightedGraph& other) const;

 private:
  size_t num_nodes_;
  // Keyed by NodePair::Key() with u < v; values are strictly positive.
  std::unordered_map<uint64_t, double> weights_;
};

}  // namespace cad

#endif  // CAD_GRAPH_GRAPH_H_
