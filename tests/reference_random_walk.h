#ifndef CAD_TESTS_REFERENCE_RANDOM_WALK_H_
#define CAD_TESTS_REFERENCE_RANDOM_WALK_H_

// Reference Monte-Carlo commute times for the commute-engine tests.
//
// Commute time by its definition (paper §3.1) rather than by Eq. 3: walks
// are simulated over AdjacencyLists() and the components come from the
// reference BFS, so no part of the estimate shares code with the exact or
// approximate engines it checks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "reference_graph.h"

namespace cad {
namespace testing_reference {

/// \brief Options for Monte-Carlo commute-time estimation.
struct RandomWalkOptions {
  /// Number of independent commute walks to average.
  size_t num_walks = 2000;
  /// Abort a single walk after this many steps (guards against pathological
  /// mixing times); aborted walks contribute the cap, biasing the estimate
  /// low, so the cap should be far above the expected commute time.
  size_t max_steps_per_walk = 10000000;
  uint64_t seed = 13;
};

/// \brief Result of a Monte-Carlo commute-time estimate.
struct CommuteTimeEstimate {
  /// Mean number of steps over the walks.
  double mean_steps = 0.0;
  /// Standard error of the mean.
  double standard_error = 0.0;
  /// Number of walks that hit the step cap (should be 0 in healthy runs).
  size_t truncated_walks = 0;
};

/// Picks the next node of a weighted random walk: neighbor j with
/// probability w(i,j) / degree(i).
inline NodeId WalkStep(
    const std::vector<std::vector<WeightedGraph::Neighbor>>& adjacency,
    const std::vector<double>& degrees, NodeId node, Rng* rng) {
  const double target = rng->Uniform() * degrees[node];
  double cumulative = 0.0;
  const auto& neighbors = adjacency[node];
  for (const auto& neighbor : neighbors) {
    cumulative += neighbor.weight;
    if (target < cumulative) return neighbor.node;
  }
  // Floating-point slack: fall back to the last neighbor.
  return neighbors.back().node;
}

/// \brief Estimates the commute time c(u, v) by literally running weighted
/// random walks: from u, repeatedly step to a neighbor with probability
/// proportional to edge weight, count steps until v is reached and then
/// until u is reached again (the paper's §3.1 definition).
///
/// This is the ground-truth validator for the algebraic engines: on small
/// graphs the Monte-Carlo mean must match Eq. 3 within sampling error (see
/// test_random_walk.cc). It is far slower than the pseudoinverse on badly
/// mixing graphs, so it lives beside the tests rather than in the library.
///
/// Requires u != v, both in range, and u, v in the same connected component
/// with positive degrees (otherwise the walk cannot commute; returns
/// InvalidArgument / FailedPrecondition).
[[nodiscard]] inline Result<CommuteTimeEstimate> EstimateCommuteTimeByWalking(
    const WeightedGraph& graph, NodeId u, NodeId v,
    const RandomWalkOptions& options = RandomWalkOptions()) {
  if (u >= graph.num_nodes() || v >= graph.num_nodes()) {
    return Status::OutOfRange("walk endpoints out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("commute walk needs distinct endpoints");
  }
  if (options.num_walks == 0) {
    return Status::InvalidArgument("num_walks must be positive");
  }
  const ComponentLabeling components = Components(graph);
  if (!components.SameComponent(u, v)) {
    return Status::FailedPrecondition(
        "endpoints are in different components; commute time is infinite");
  }

  const auto adjacency = graph.AdjacencyLists();
  std::vector<double> degrees(graph.num_nodes(), 0.0);
  for (size_t i = 0; i < adjacency.size(); ++i) {
    for (const auto& neighbor : adjacency[i]) degrees[i] += neighbor.weight;
  }
  Rng rng(options.seed);

  CommuteTimeEstimate estimate;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (size_t walk = 0; walk < options.num_walks; ++walk) {
    size_t steps = 0;
    NodeId position = u;
    bool reached_v = false;
    while (steps < options.max_steps_per_walk) {
      position = WalkStep(adjacency, degrees, position, &rng);
      ++steps;
      if (!reached_v) {
        if (position == v) reached_v = true;
      } else if (position == u) {
        break;
      }
    }
    if (steps >= options.max_steps_per_walk) ++estimate.truncated_walks;
    const double value = static_cast<double>(steps);
    sum += value;
    sum_squares += value * value;
  }
  const double n = static_cast<double>(options.num_walks);
  estimate.mean_steps = sum / n;
  const double variance =
      n > 1.0
          ? std::max(0.0, (sum_squares - sum * sum / n) / (n - 1.0))
          : 0.0;
  estimate.standard_error = std::sqrt(variance / n);
  return estimate;
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_RANDOM_WALK_H_
