#ifndef CAD_TESTS_REFERENCE_GRAPH_H_
#define CAD_TESTS_REFERENCE_GRAPH_H_

// Reference snapshot-structure builders for the graph tests.
//
// The textbook constructions the library replaced with direct assembly from
// the sorted edge list: CSR by COO triplets and CooMatrix::ToCsr's per-row
// sort, and connected components by BFS over AdjacencyLists(). Neither goes
// through Edges() or Snapshot, so a mistake there cannot hide in both sides
// of a comparison. ToAdjacencyCsr/ToLaplacianCsr and ConnectedComponents
// must reproduce these bit for bit.
//
// AddEdgeWeight is the find-then-SetEdge aggregation step that
// WeightedGraph::AddEdgeWeight's single-probe version must match: same
// statuses, same resulting edges.

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "graph/components.h"
#include "graph/graph.h"
#include "linalg/sparse_matrix.h"

namespace cad {
namespace testing_reference {

/// Adds `delta` to edge {u, v} by reading the weight with EdgeWeight and
/// writing the sum back with SetEdge, which validates it.
[[nodiscard]] inline Status AddEdgeWeight(WeightedGraph* graph, NodeId u,
                                          NodeId v, double delta) {
  const double next = graph->EdgeWeight(u, v) + delta;
  const bool valid_endpoints =
      u != v && u < graph->num_nodes() && v < graph->num_nodes();
  if (valid_endpoints && next < 0.0) {
    return Status::InvalidArgument(
        "AddEdgeWeight would make weight negative: " + std::to_string(next));
  }
  return graph->SetEdge(u, v, next);
}

/// Symmetric adjacency CSR via COO triplets.
inline CsrMatrix AdjacencyCsr(const WeightedGraph& graph) {
  const size_t n = graph.num_nodes();
  CooMatrix coo(n, n);
  const auto lists = graph.AdjacencyLists();
  for (size_t u = 0; u < n; ++u) {
    for (const WeightedGraph::Neighbor& neighbor : lists[u]) {
      if (neighbor.node > u) {
        coo.AddSymmetric(static_cast<uint32_t>(u), neighbor.node,
                         neighbor.weight);
      }
    }
  }
  return coo.ToCsr();
}

/// Laplacian D - A + regularization * I via COO triplets; the diagonal,
/// present for every node, is the weighted degree + regularization, with
/// each degree summed over the edges in ascending (u, v) order.
inline CsrMatrix LaplacianCsr(const WeightedGraph& graph,
                              double regularization) {
  const size_t n = graph.num_nodes();
  std::vector<double> degrees(n, 0.0);
  CooMatrix coo(n, n);
  const auto lists = graph.AdjacencyLists();
  for (size_t u = 0; u < n; ++u) {
    for (const WeightedGraph::Neighbor& neighbor : lists[u]) {
      if (neighbor.node > u) {
        degrees[u] += neighbor.weight;
        degrees[neighbor.node] += neighbor.weight;
        coo.AddSymmetric(static_cast<uint32_t>(u), neighbor.node,
                         -neighbor.weight);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    coo.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i),
            degrees[i] + regularization);
  }
  return coo.ToCsr();
}

/// Components by BFS over the neighbor lists, labeled in order of each
/// component's smallest node.
inline ComponentLabeling Components(const WeightedGraph& graph) {
  const size_t n = graph.num_nodes();
  constexpr uint32_t kUnassigned = 0xffffffffu;
  ComponentLabeling labeling;
  labeling.component.assign(n, kUnassigned);
  const auto adjacency = graph.AdjacencyLists();
  std::queue<NodeId> frontier;
  for (size_t start = 0; start < n; ++start) {
    if (labeling.component[start] != kUnassigned) continue;
    const auto id = static_cast<uint32_t>(labeling.num_components++);
    labeling.sizes.push_back(0);
    labeling.component[start] = id;
    frontier.push(static_cast<NodeId>(start));
    while (!frontier.empty()) {
      const NodeId node = frontier.front();
      frontier.pop();
      ++labeling.sizes[id];
      for (const auto& neighbor : adjacency[node]) {
        if (labeling.component[neighbor.node] == kUnassigned) {
          labeling.component[neighbor.node] = id;
          frontier.push(neighbor.node);
        }
      }
    }
  }
  return labeling;
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_GRAPH_H_
