#include "core/threshold.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace cad {

std::vector<AnomalyReport> ApplyThreshold(
    const std::vector<TransitionScores>& scores, double delta) {
  std::vector<AnomalyReport> reports;
  reports.reserve(scores.size());
  for (size_t t = 0; t < scores.size(); ++t) {
    AnomalyReport report;
    report.transition = t;
    const std::vector<size_t> selected =
        SelectAnomalousEdges(scores[t], delta);
    report.edges.reserve(selected.size());
    for (size_t index : selected) {
      report.edges.push_back(scores[t].edges[index]);
    }
    report.nodes = EndpointUnion(scores[t], selected);
    reports.push_back(std::move(report));
  }
  return reports;
}

size_t CountAnomalousNodes(const std::vector<TransitionScores>& scores,
                           double delta) {
  size_t total = 0;
  for (const TransitionScores& transition : scores) {
    // The selection is always a prefix of the descending order, so the
    // node count is a binary search plus a prefix-table lookup — no edge materialization. This is what turns CalibrateDelta's
    // 100-probe bisection from O(iter*T*E log E) into O(iter*T*log E).
    CAD_DCHECK(transition.has_selection_index());
    total += transition.prefix_nodes[CountSelectedEdges(transition, delta)];
  }
  return total;
}

Status ValidateNodesPerTransition(double nodes_per_transition) {
  if (!(nodes_per_transition >= 0.0)) {
    return Status::InvalidArgument(
        "anomalous nodes per transition (--l) must be a non-negative "
        "number, got " + std::to_string(nodes_per_transition));
  }
  return Status::OK();
}

double CalibrateDelta(const std::vector<TransitionScores>& scores,
                      double nodes_per_transition) {
  if (scores.empty()) return 0.0;
  CAD_CHECK_GE(nodes_per_transition, 0.0);
  const double target =
      nodes_per_transition * static_cast<double>(scores.size());

  double max_total = 0.0;
  for (const TransitionScores& transition : scores) {
    max_total = std::max(max_total, transition.total_score);
  }
  if (max_total <= 0.0) return 1.0;  // no signal anywhere: any delta works

  // CountAnomalousNodes is non-increasing in delta: at delta slightly above
  // the largest per-transition total nothing is flagged; as delta -> 0 every
  // positive-score edge is flagged. Bisect and keep the best delta seen.
  double lo = 0.0;
  double hi = max_total * (1.0 + 1e-9) + 1e-12;
  double best_delta = hi;
  double best_gap = std::fabs(
      static_cast<double>(CountAnomalousNodes(scores, hi)) - target);
  int iterations = 0;
  for (; iterations < 100 && best_gap > 0.0; ++iterations) {
    const double mid = 0.5 * (lo + hi);
    const size_t count = CountAnomalousNodes(scores, mid);
    const double gap = std::fabs(static_cast<double>(count) - target);
    if (gap < best_gap ||
        (gap == best_gap && static_cast<double>(count) >= target)) {
      best_gap = gap;
      best_delta = mid;
    }
    if (static_cast<double>(count) > target) {
      lo = mid;  // too many nodes: raise delta
    } else {
      hi = mid;  // too few: lower delta
    }
  }
  // The probe count depends only on the score multiset, so these counters
  // stay on the deterministic side of the metrics contract; heartbeat deltas
  // expose how much bisection work each window cost.
  CAD_METRIC_INC("threshold.calibrations");
  CAD_METRIC_ADD("threshold.calibration_iterations", iterations);
  return best_delta;
}

}  // namespace cad
