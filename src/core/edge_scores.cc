#include "core/edge_scores.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace cad {

const char* EdgeScoreKindToString(EdgeScoreKind kind) {
  switch (kind) {
    case EdgeScoreKind::kCad:
      return "CAD";
    case EdgeScoreKind::kAdj:
      return "ADJ";
    case EdgeScoreKind::kCom:
      return "COM";
    case EdgeScoreKind::kSum:
      return "SUM";
  }
  return "Unknown";
}

TransitionScores ComputeTransitionScores(const WeightedGraph& before,
                                         const WeightedGraph& after,
                                         const CommuteTimeOracle& oracle_before,
                                         const CommuteTimeOracle& oracle_after,
                                         EdgeScoreKind kind) {
  CAD_CHECK_EQ(before.num_nodes(), after.num_nodes());
  CAD_CHECK_EQ(oracle_before.num_nodes(), before.num_nodes());
  CAD_CHECK_EQ(oracle_after.num_nodes(), after.num_nodes());
  const size_t n = before.num_nodes();

  // Union of edge supports.
  std::vector<NodePair> support;
  support.reserve(before.num_edges() + after.num_edges());
  for (const Edge& e : before.Edges()) support.push_back(NodePair{e.u, e.v});
  for (const Edge& e : after.Edges()) support.push_back(NodePair{e.u, e.v});
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());

  TransitionScores result;
  result.edges.reserve(support.size());
  result.node_scores.assign(n, 0.0);

  // First pass: raw deltas.
  double max_abs_weight_delta = 0.0;
  double max_abs_commute_delta = 0.0;
  for (const NodePair& pair : support) {
    ScoredEdge scored;
    scored.pair = pair;
    scored.weight_delta =
        after.EdgeWeight(pair.u, pair.v) - before.EdgeWeight(pair.u, pair.v);
    scored.commute_delta = oracle_after.CommuteTime(pair.u, pair.v) -
                           oracle_before.CommuteTime(pair.u, pair.v);
    max_abs_weight_delta =
        std::max(max_abs_weight_delta, std::fabs(scored.weight_delta));
    max_abs_commute_delta =
        std::max(max_abs_commute_delta, std::fabs(scored.commute_delta));
    result.edges.push_back(scored);
  }

  // Second pass: fuse deltas into the selected score.
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
    // Every fused score is a product/sum of absolute deltas: dE >= 0 and
    // finite, or an oracle/graph invariant upstream has been corrupted.
    CAD_DCHECK(scored.score >= 0.0 && std::isfinite(scored.score))
        << "edge (" << scored.pair.u << ", " << scored.pair.v
        << ") score=" << scored.score;
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

void TransitionScores::BuildSelectionIndex() {
  num_positive = 0;
  while (num_positive < edges.size() && edges[num_positive].score > 0.0) {
    ++num_positive;
  }
  // Replay the peeling loop's successive subtraction once. Computing this as
  // total - prefix_sum would round differently and change which edges the
  // paper's peel (subtract top scores until the remainder is below delta)
  // selects.
  remaining_mass.resize(num_positive);
  double remaining = total_score;
  for (size_t i = 0; i < num_positive; ++i) {
    remaining_mass[i] = remaining;
    remaining -= edges[i].score;
  }
  prefix_nodes.assign(num_positive + 1, 0);
  std::unordered_set<NodeId> seen;
  seen.reserve(2 * num_positive);
  for (size_t i = 0; i < num_positive; ++i) {
    seen.insert(edges[i].pair.u);
    seen.insert(edges[i].pair.v);
    prefix_nodes[i + 1] = seen.size();
  }
}

size_t CountSelectedEdges(const TransitionScores& scores, double delta) {
  CAD_DCHECK(scores.has_selection_index());
  // remaining_mass is strictly decreasing over [0, num_positive) (every
  // score there is positive), so the first index whose remaining mass drops
  // below delta is found by binary search; the selection is the prefix
  // before it. Comparisons are against the same successively subtracted
  // values a peeling loop would see, so the count equals that loop's.
  size_t lo = 0;
  size_t hi = scores.num_positive;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (scores.remaining_mass[mid] < delta) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::vector<size_t> SelectAnomalousEdges(const TransitionScores& scores,
                                         double delta) {
  // Remaining mass starts at the full total; peel off top-scored edges until
  // what is left is below delta. If the total is already below delta, no
  // edge is anomalous. The selection is always a prefix of the descending
  // order, so its length fully determines it.
  const size_t count = CountSelectedEdges(scores, delta);
  std::vector<size_t> selected(count);
  for (size_t i = 0; i < count; ++i) selected[i] = i;
  return selected;
}

std::vector<NodeId> EndpointUnion(const TransitionScores& scores,
                                  const std::vector<size_t>& edge_indices) {
  std::vector<NodeId> nodes;
  nodes.reserve(edge_indices.size() * 2);
  for (size_t index : edge_indices) {
    nodes.push_back(scores.edges[index].pair.u);
    nodes.push_back(scores.edges[index].pair.v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace cad
