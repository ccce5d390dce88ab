#ifndef CAD_CORE_THRESHOLD_H_
#define CAD_CORE_THRESHOLD_H_

#include <vector>

#include "common/status.h"
#include "core/edge_scores.h"

namespace cad {

/// \brief Final localization output for one transition: the anomalous edge
/// set E_t and node set V_t of Algorithm 1.
struct AnomalyReport {
  /// Transition index t (between snapshots t and t+1).
  size_t transition = 0;
  /// Selected anomalous edges, highest score first.
  std::vector<ScoredEdge> edges;
  /// Union of the selected edges' endpoints, ascending (V_t).
  std::vector<NodeId> nodes;
};

/// \brief Applies a single threshold `delta` to every transition's scores,
/// producing the anomalous edge/node sets (paper §2.4.1 / Algorithm 1,
/// lines 8-11). Transitions whose total score is already below delta report
/// no anomalies.
std::vector<AnomalyReport> ApplyThreshold(
    const std::vector<TransitionScores>& scores, double delta);

/// \brief The paper's automated threshold selection (§4.2): given a target
/// of `nodes_per_transition` anomalous nodes on average, chooses one global
/// delta such that the total number of anomalous nodes across all
/// transitions is as close as possible to nodes_per_transition * T'.
///
/// A single global threshold (rather than per-transition top-l) means calm
/// transitions report nothing while eventful ones report more than l — the
/// behaviour highlighted in the Enron study (Fig. 7).
///
/// Returns 0 when `scores` is empty. Found by bisection over delta, since
/// the flagged-node count is non-increasing in delta. `nodes_per_transition`
/// must pass ValidateNodesPerTransition (CHECK-enforced).
double CalibrateDelta(const std::vector<TransitionScores>& scores,
                      double nodes_per_transition);

/// InvalidArgument unless `nodes_per_transition` (the tools' --l) is a
/// non-negative number; NaN and negative targets are rejected. Front ends
/// call this before any work, so a bad --l is an error, not an abort.
[[nodiscard]] Status ValidateNodesPerTransition(double nodes_per_transition);

/// Total number of anomalous nodes that `delta` produces across transitions.
/// Every transition must carry its selection index (see
/// TransitionScores::BuildSelectionIndex).
size_t CountAnomalousNodes(const std::vector<TransitionScores>& scores,
                           double delta);

}  // namespace cad

#endif  // CAD_CORE_THRESHOLD_H_
