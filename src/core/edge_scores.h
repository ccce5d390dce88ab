#ifndef CAD_CORE_EDGE_SCORES_H_
#define CAD_CORE_EDGE_SCORES_H_

#include <vector>

#include "commute/commute_time.h"
#include "graph/graph.h"

namespace cad {

/// \brief Which per-edge anomaly score to compute for a transition.
///
/// The paper defines CAD's score and two degenerate variants used as
/// baselines (§3.4), plus we add the additive fusion for the ablation bench.
enum class EdgeScoreKind {
  /// dE(i,j) = |dA(i,j)| * |dc(i,j)| — the CAD score (paper §2.5).
  kCad,
  /// dE(i,j) = |dA(i,j)| — adjacency change only (ADJ baseline).
  kAdj,
  /// dE(i,j) = |dc(i,j)| — commute-time change only (COM baseline).
  kCom,
  /// dE(i,j) = |dA|/max|dA| + |dc|/max|dc| — normalized additive fusion
  /// (ablation only; not in the paper).
  kSum,
};

const char* EdgeScoreKindToString(EdgeScoreKind kind);

/// \brief One scored node pair within a transition.
struct ScoredEdge {
  NodePair pair;
  /// The anomaly score dE_t(e) for the selected EdgeScoreKind.
  double score = 0.0;
  /// A_{t+1}(i,j) - A_t(i,j).
  double weight_delta = 0.0;
  /// c_{t+1}(i,j) - c_t(i,j).
  double commute_delta = 0.0;
};

/// \brief All scores for one transition t -> t+1.
struct TransitionScores {
  /// Scored pairs over the union of edge supports of G_t and G_{t+1}
  /// (every pair that could have a nonzero score), sorted by score
  /// descending, ties broken by (u, v) for determinism.
  std::vector<ScoredEdge> edges;
  /// Node scores dN_t(i) = sum_j dE_t(e_{i,j}) (paper §3.5.1).
  std::vector<double> node_scores;
  /// Sum of all edge scores (the value compared against delta when S is
  /// empty).
  double total_score = 0.0;

  // --- Selection index (see BuildSelectionIndex) ---------------------------
  /// remaining_mass[i] is the score mass left *before* edge i is considered:
  /// remaining_mass[0] = total_score, remaining_mass[i+1] =
  /// remaining_mass[i] - edges[i].score. Computed by the same successive
  /// subtraction as the selection loop so thresholding against it is
  /// bit-identical to re-running that loop. Size num_positive.
  std::vector<double> remaining_mass;
  /// prefix_nodes[k] = number of distinct endpoints among edges[0..k).
  /// Size num_positive + 1.
  std::vector<size_t> prefix_nodes;
  /// Number of leading edges with score > 0 (the sort puts them first); the
  /// selection never extends past this prefix.
  size_t num_positive = 0;

  /// \brief Builds the selection index over the (already sorted) edges so
  /// that SelectAnomalousEdges/CountAnomalousNodes run as a binary search
  /// over `remaining_mass` instead of replaying the peeling loop. O(E) once;
  /// makes each threshold probe O(log E). Call after any change to `edges`.
  void BuildSelectionIndex();

  bool has_selection_index() const { return !prefix_nodes.empty(); }
};

/// \brief Number of edges SelectAnomalousEdges would select for `delta`
/// (always the length of the selected prefix), by binary search over the
/// selection index, which must be present (ComputeTransitionScores and
/// checkpoint restore both build it).
size_t CountSelectedEdges(const TransitionScores& scores, double delta);

/// \brief Computes per-edge anomaly scores for the transition between
/// `before` and `after`, using the given commute-time oracles for the two
/// snapshots.
///
/// Only pairs in the union of the two snapshots' edge supports are scored;
/// every other pair has dA = 0 and hence score 0 for kCad/kAdj (and is not
/// part of the COM support by the paper's O(m log m) argument, §3.3).
/// For kCom the same support is used — this matches the paper's runtime
/// analysis, which treats the number of nonzero score entries as O(m).
TransitionScores ComputeTransitionScores(const WeightedGraph& before,
                                         const WeightedGraph& after,
                                         const CommuteTimeOracle& oracle_before,
                                         const CommuteTimeOracle& oracle_after,
                                         EdgeScoreKind kind);

/// \brief Selects the anomalous edge set E_t for threshold `delta`:
/// the smallest prefix of the (descending) score order such that the scores
/// of all *remaining* pairs sum to < delta (paper §2.4.1). Returns indices
/// into `scores.edges`.
std::vector<size_t> SelectAnomalousEdges(const TransitionScores& scores,
                                         double delta);

/// \brief Union of the endpoints of the selected edges, ascending. This is
/// the anomalous node set V_t.
std::vector<NodeId> EndpointUnion(const TransitionScores& scores,
                                  const std::vector<size_t>& edge_indices);

}  // namespace cad

#endif  // CAD_CORE_EDGE_SCORES_H_
