#ifndef CAD_CORE_CASE_CLASSIFIER_H_
#define CAD_CORE_CASE_CLASSIFIER_H_

#include <string>

#include "core/edge_scores.h"
#include "graph/graph.h"

namespace cad {

/// \brief The paper's taxonomy of anomalous edge-weight changes (§2.1).
enum class AnomalyCase {
  /// Case 1: high-magnitude change (increase or decrease) in the weight of
  /// an existing relationship.
  kMagnitudeChange,
  /// Case 2: a new or sharply strengthened edge that brings structurally
  /// distant nodes close together (commute time collapses).
  kNewBridge,
  /// Case 3: a weakened or deleted edge between central/bridge nodes that
  /// pushes previously proximal nodes far apart (commute time blows up).
  kWeakenedBridge,
  /// The edge's deltas do not match any anomalous pattern (e.g. a benign
  /// jitter that was nevertheless selected by a permissive threshold).
  kUnclassified,
};

const char* AnomalyCaseToString(AnomalyCase anomaly_case);

/// \brief Tuning knobs for the classifier.
struct CaseClassifierOptions {
  /// A relative commute-time change |dc| / c_before above this is
  /// "structural" (the node pair genuinely moved).
  double structural_change_ratio = 0.25;
  /// A relative weight change |dA| / max(w_before, w_after) above this is a
  /// "high-magnitude" change.
  double magnitude_change_ratio = 0.5;
};

/// \brief Classifies one scored edge into the paper's Case 1/2/3 taxonomy
/// from its weight and commute-time deltas:
///
///  - commute time collapsed structurally and weight grew  -> Case 2,
///  - commute time grew structurally and weight shrank     -> Case 3,
///  - otherwise a large relative weight change             -> Case 1,
///  - otherwise                                            -> unclassified.
///
/// `before`/`after` supply the edge's original weights (for relative
/// magnitude) and the commute baseline is `|commute_delta| /
/// (commute_before)` computed from the scored edge's deltas; callers pass
/// the before-snapshot commute time of the pair, which scoring records as
/// `edge.commute_before`.
AnomalyCase ClassifyAnomalousEdge(
    const ScoredEdge& edge, double commute_before,
    const WeightedGraph& before, const WeightedGraph& after,
    const CaseClassifierOptions& options = CaseClassifierOptions());

}  // namespace cad

#endif  // CAD_CORE_CASE_CLASSIFIER_H_
