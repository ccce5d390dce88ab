#ifndef CAD_GRAPH_GRAPH_H_
#define CAD_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

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

/// \brief Undirected weighted graph on a fixed node set: the mutable
/// builder that window aggregation and the loaders fill.
///
/// Matches the paper's framework (§2): the vertex set is fixed, edge weights
/// are non-negative, and "no edge" is represented by weight zero. Self-loops
/// are disallowed. Consumers read a finished graph as a Snapshot
/// (graph/snapshot.h), which sorts the edges once and sums degrees and
/// volume in that order; nothing here sums over the hash map.
class WeightedGraph {
 public:
  /// Creates an edgeless graph on `num_nodes` nodes.
  explicit WeightedGraph(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Grows the node set to `num_nodes`; new nodes are isolated. Shrinking is
  /// rejected (edges could dangle). Growing never touches existing edges.
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

  /// Unweighted degree (neighbor count) of every node.
  std::vector<size_t> Degrees() const;

  /// Sorted neighbor lists (adjacency view shared by BFS/Dijkstra).
  struct Neighbor {
    NodeId node;
    double weight;
  };
  std::vector<std::vector<Neighbor>> AdjacencyLists() const;

  /// Summary string: "WeightedGraph(n=…, m=…)".
  std::string ToString() const;

  bool operator==(const WeightedGraph& other) const;

 private:
  size_t num_nodes_;
  // Keyed by NodePair::Key() with u < v; values are strictly positive.
  std::unordered_map<uint64_t, double> weights_;
};

}  // namespace cad

#endif  // CAD_GRAPH_GRAPH_H_
