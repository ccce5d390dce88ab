#include "graph/centrality.h"

#include <algorithm>

namespace cad {

namespace {

std::vector<double> ExactCloseness(const WeightedGraph& graph,
                                   EdgeLengthMode mode) {
  const size_t n = graph.num_nodes();
  std::vector<double> centrality(n, 0.0);
  if (n <= 1) return centrality;
  const auto adjacency = graph.AdjacencyLists();
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> dist =
        DijkstraDistances(adjacency, static_cast<NodeId>(i), mode);
    double sum = 0.0;
    size_t reachable = 0;  // excludes i itself
    for (size_t j = 0; j < n; ++j) {
      if (j == i || dist[j] == kInfiniteDistance) continue;
      sum += dist[j];
      ++reachable;
    }
    if (reachable == 0 || sum == 0.0) continue;
    const double r = static_cast<double>(reachable);
    // Wasserman-Faust: scale by the reachable fraction so that nodes in tiny
    // components do not look spuriously central.
    centrality[i] = (r / static_cast<double>(n - 1)) * (r / sum);
  }
  return centrality;
}

std::vector<double> SampledCloseness(const WeightedGraph& graph,
                                     const ClosenessOptions& options) {
  const size_t n = graph.num_nodes();
  std::vector<double> centrality(n, 0.0);
  if (n <= 1) return centrality;
  const size_t s = std::min(options.num_samples, n);
  Rng rng(options.seed);
  const std::vector<size_t> pivots = rng.SampleWithoutReplacement(n, s);

  const auto adjacency = graph.AdjacencyLists();
  std::vector<double> finite_sum(n, 0.0);
  std::vector<size_t> finite_count(n, 0);
  for (size_t pivot : pivots) {
    const std::vector<double> dist = DijkstraDistances(
        adjacency, static_cast<NodeId>(pivot), options.length_mode);
    for (size_t j = 0; j < n; ++j) {
      if (dist[j] == kInfiniteDistance) continue;
      finite_sum[j] += dist[j];
      ++finite_count[j];
    }
  }

  // Eppstein-Wang style estimator: mean distance to reachable nodes from the
  // pivot sample, reachable-set size extrapolated from the finite fraction.
  for (size_t i = 0; i < n; ++i) {
    if (finite_count[i] == 0) continue;
    const double mean_dist =
        finite_sum[i] / static_cast<double>(finite_count[i]);
    const double reachable = static_cast<double>(n) *
                             static_cast<double>(finite_count[i]) /
                             static_cast<double>(s);
    if (mean_dist <= 0.0 || reachable <= 1.0) continue;
    centrality[i] = (reachable - 1.0) /
                    (static_cast<double>(n - 1) * mean_dist);
  }
  return centrality;
}

}  // namespace

std::vector<double> ClosenessCentrality(const WeightedGraph& graph,
                                        const ClosenessOptions& options) {
  if (options.num_samples == 0 || options.num_samples >= graph.num_nodes()) {
    return ExactCloseness(graph, options.length_mode);
  }
  return SampledCloseness(graph, options);
}

}  // namespace cad
