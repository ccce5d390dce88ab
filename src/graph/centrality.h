#ifndef CAD_GRAPH_CENTRALITY_H_
#define CAD_GRAPH_CENTRALITY_H_

#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/shortest_paths.h"

namespace cad {

/// \brief Options for closeness centrality.
struct ClosenessOptions {
  EdgeLengthMode length_mode = EdgeLengthMode::kInverseWeight;
  /// Number of pivot sources for the sampled estimator; 0 means exact
  /// (one Dijkstra per node).
  size_t num_samples = 0;
  /// Seed for pivot selection in the sampled estimator.
  uint64_t seed = 42;
};

/// \brief Closeness centrality of every node.
///
/// Uses the Wasserman–Faust formulation, which is well defined on
/// disconnected graphs:
///
///   cc(i) = ((r_i - 1) / (n - 1)) * ((r_i - 1) / sum_{j reachable} d(i, j))
///
/// where r_i is the number of nodes reachable from i (including i). Isolated
/// nodes get centrality 0.
///
/// With `num_samples > 0` the distance sums are estimated from Dijkstra runs
/// out of `num_samples` uniformly sampled pivots (the Eppstein–Wang
/// estimator); this is the CLC baseline configuration used for large graphs
/// in the scalability study (§4.1.3).
std::vector<double> ClosenessCentrality(
    const WeightedGraph& graph, const ClosenessOptions& options = {});

}  // namespace cad

#endif  // CAD_GRAPH_CENTRALITY_H_
