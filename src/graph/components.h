#ifndef CAD_GRAPH_COMPONENTS_H_
#define CAD_GRAPH_COMPONENTS_H_

#include <vector>

#include "graph/snapshot.h"

namespace cad {

/// \brief Connected-component labeling of a weighted graph.
struct ComponentLabeling {
  /// component[i] is the 0-based component id of node i; ids are assigned in
  /// order of the smallest node in each component.
  std::vector<uint32_t> component;
  /// Number of connected components.
  size_t num_components = 0;
  /// Node count of each component.
  std::vector<size_t> sizes;

  bool SameComponent(NodeId u, NodeId v) const {
    return component[u] == component[v];
  }
};

/// \brief Computes connected components by a BFS over the nonzero pattern
/// of a square, symmetric CSR matrix: an adjacency matrix, or a Laplacian
/// (diagonal entries are ignored). Nodes without off-diagonal entries form
/// singleton components.
///
/// The commute-time engines need this because commute distance is infinite
/// across components; the exact engine can compute per-component
/// pseudoinverses, and callers may want to report component splits. The
/// approximate engine labels from the Laplacian it solves against, so the
/// snapshot's structure is walked once per build.
ComponentLabeling ConnectedComponents(const CsrMatrix& pattern);

/// ConnectedComponents over the snapshot's adjacency CSR.
ComponentLabeling ConnectedComponents(const Snapshot& snapshot);

/// True if the snapshot has a single connected component (or no nodes).
bool IsConnected(const Snapshot& snapshot);

}  // namespace cad

#endif  // CAD_GRAPH_COMPONENTS_H_
