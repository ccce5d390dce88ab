#ifndef CAD_TESTS_REFERENCE_SELECTION_H_
#define CAD_TESTS_REFERENCE_SELECTION_H_

// Reference threshold selection for the selection-index tests: the paper's
// peel loop (Algorithm 1, lines 8-11) run edge by edge, with none of the
// selection index. CountSelectedEdges, CountAnomalousNodes and
// CalibrateDelta must agree with these bit for bit.

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/edge_scores.h"

namespace cad {
namespace testing_reference {

/// Peels top-scored edges off the total until the remainder drops below
/// `delta`; returns how many were peeled (the selection is that prefix).
inline size_t PeelCount(const TransitionScores& scores, double delta) {
  size_t selected = 0;
  double remaining = scores.total_score;
  for (size_t i = 0; i < scores.edges.size(); ++i) {
    if (remaining < delta) break;
    if (scores.edges[i].score <= 0.0) break;
    ++selected;
    remaining -= scores.edges[i].score;
  }
  return selected;
}

/// Anomalous nodes across transitions: the endpoint union of each peeled
/// prefix, materialized.
inline size_t PeelAnomalousNodes(const std::vector<TransitionScores>& scores,
                                 double delta) {
  size_t total = 0;
  for (const TransitionScores& transition : scores) {
    std::vector<size_t> indices(PeelCount(transition, delta));
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    total += EndpointUnion(transition, indices).size();
  }
  return total;
}

/// CalibrateDelta's bisection over PeelAnomalousNodes.
inline double PeelCalibrateDelta(const std::vector<TransitionScores>& scores,
                                 double nodes_per_transition) {
  if (scores.empty()) return 0.0;
  const double target =
      nodes_per_transition * static_cast<double>(scores.size());
  double max_total = 0.0;
  for (const TransitionScores& transition : scores) {
    max_total = std::max(max_total, transition.total_score);
  }
  if (max_total <= 0.0) return 1.0;
  double lo = 0.0;
  double hi = max_total * (1.0 + 1e-9) + 1e-12;
  double best_delta = hi;
  double best_gap = std::fabs(
      static_cast<double>(PeelAnomalousNodes(scores, hi)) - target);
  for (int iteration = 0; iteration < 100 && best_gap > 0.0; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    const size_t count = PeelAnomalousNodes(scores, mid);
    const double gap = std::fabs(static_cast<double>(count) - target);
    if (gap < best_gap ||
        (gap == best_gap && static_cast<double>(count) >= target)) {
      best_gap = gap;
      best_delta = mid;
    }
    if (static_cast<double>(count) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best_delta;
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_SELECTION_H_
