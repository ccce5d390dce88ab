#ifndef CAD_TESTS_REFERENCE_SCORES_H_
#define CAD_TESTS_REFERENCE_SCORES_H_

// Reference transition scorer for the edge-score tests.
//
// The direct formulation of ComputeTransitionScores: concatenate both
// snapshots' edge supports, sort and deduplicate them, and look every
// pair's weights up with EdgeWeight. The library merges the two sorted edge
// lists instead; both must produce the same TransitionScores bit for bit.

#include <algorithm>
#include <cmath>
#include <vector>

#include "commute/commute_time.h"
#include "core/edge_scores.h"
#include "graph/graph.h"

namespace cad {
namespace testing_reference {

inline TransitionScores ScoreTransition(const WeightedGraph& before,
                                        const WeightedGraph& after,
                                        const CommuteTimeOracle& oracle_before,
                                        const CommuteTimeOracle& oracle_after,
                                        EdgeScoreKind kind) {
  std::vector<NodePair> support;
  for (const Edge& e : before.Edges()) support.push_back(NodePair{e.u, e.v});
  for (const Edge& e : after.Edges()) support.push_back(NodePair{e.u, e.v});
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());

  TransitionScores result;
  result.node_scores.assign(before.num_nodes(), 0.0);
  double max_abs_weight_delta = 0.0;
  double max_abs_commute_delta = 0.0;
  for (const NodePair& pair : support) {
    ScoredEdge scored;
    scored.pair = pair;
    scored.weight_delta =
        after.EdgeWeight(pair.u, pair.v) - before.EdgeWeight(pair.u, pair.v);
    scored.commute_before = oracle_before.CommuteTime(pair.u, pair.v);
    scored.commute_delta =
        oracle_after.CommuteTime(pair.u, pair.v) - scored.commute_before;
    max_abs_weight_delta =
        std::max(max_abs_weight_delta, std::fabs(scored.weight_delta));
    max_abs_commute_delta =
        std::max(max_abs_commute_delta, std::fabs(scored.commute_delta));
    result.edges.push_back(scored);
  }
  for (ScoredEdge& scored : result.edges) {
    const double abs_dw = std::fabs(scored.weight_delta);
    const double abs_dc = std::fabs(scored.commute_delta);
    switch (kind) {
      case EdgeScoreKind::kCad:
        scored.score = abs_dw * abs_dc;
        break;
      case EdgeScoreKind::kAdj:
        scored.score = abs_dw;
        break;
      case EdgeScoreKind::kCom:
        scored.score = abs_dc;
        break;
      case EdgeScoreKind::kSum:
        scored.score =
            (max_abs_weight_delta > 0.0 ? abs_dw / max_abs_weight_delta : 0.0) +
            (max_abs_commute_delta > 0.0 ? abs_dc / max_abs_commute_delta
                                         : 0.0);
        break;
    }
    result.total_score += scored.score;
    result.node_scores[scored.pair.u] += scored.score;
    result.node_scores[scored.pair.v] += scored.score;
  }
  std::sort(result.edges.begin(), result.edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.pair < b.pair;
            });
  result.BuildSelectionIndex();
  return result;
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_SCORES_H_
