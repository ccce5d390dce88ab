// Validates the paper's §2.4.1 reduction: because the distance satisfies
// d_S = sum_{e in E-S} dE(e), the combinatorial problem
//
//   E_t = argmin |S|  subject to  sum_{e in E-S} dE(e) < delta     (Eq. 1)
//
// is solved exactly by taking scores in decreasing order. These tests check
// the greedy selection against brute-force enumeration of all subsets on
// small random instances, across a sweep of thresholds.

#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/edge_scores.h"

namespace cad {
namespace {

/// Brute force: smallest |S| over all subsets with sum(E - S) < delta, or
/// SIZE_MAX if even S = E fails (cannot happen for delta > 0).
size_t BruteForceMinimalCardinality(const std::vector<double>& scores,
                                    double delta) {
  const size_t m = scores.size();
  size_t best = SIZE_MAX;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    double remaining = 0.0;
    size_t cardinality = 0;
    for (size_t e = 0; e < m; ++e) {
      if (mask & (uint64_t{1} << e)) {
        ++cardinality;
      } else {
        remaining += scores[e];
      }
    }
    if (remaining < delta) best = std::min(best, cardinality);
  }
  return best;
}

TransitionScores FromScores(const std::vector<double>& scores) {
  TransitionScores transition;
  NodeId next = 0;
  for (double score : scores) {
    transition.edges.push_back(ScoredEdge{NodePair{next, next + 1}, score, 0, 0});
    next += 2;
    transition.total_score += score;
  }
  std::sort(transition.edges.begin(), transition.edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              return a.score > b.score;
            });
  transition.BuildSelectionIndex();
  return transition;
}

class OptimizationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizationSweep, GreedyMatchesBruteForce) {
  Rng rng(GetParam());
  // Random instance: up to 12 edges with skewed scores (some ties, some
  // zeros — the hard cases for a greedy rule).
  const size_t m = 4 + rng.UniformInt(9);
  std::vector<double> scores;
  for (size_t e = 0; e < m; ++e) {
    const double roll = rng.Uniform();
    if (roll < 0.15) {
      scores.push_back(0.0);
    } else if (roll < 0.35) {
      scores.push_back(1.0);  // deliberate ties
    } else {
      scores.push_back(rng.Uniform(0.1, 10.0));
    }
  }
  const TransitionScores transition = FromScores(scores);

  double total = 0.0;
  for (double s : scores) total += s;
  for (double fraction : {0.05, 0.2, 0.5, 0.8, 0.95, 1.1}) {
    const double delta = fraction * std::max(total, 1e-9);
    const std::vector<size_t> selected =
        SelectAnomalousEdges(transition, delta);
    // (a) The greedy selection satisfies the constraint.
    double remaining = transition.total_score;
    for (size_t index : selected) remaining -= transition.edges[index].score;
    EXPECT_LT(remaining, delta)
        << "constraint violated at delta=" << delta << " seed=" << GetParam();
    // (b) Its cardinality is optimal.
    const size_t optimum = BruteForceMinimalCardinality(scores, delta);
    ASSERT_NE(optimum, SIZE_MAX);
    EXPECT_EQ(selected.size(), optimum)
        << "suboptimal cardinality at delta=" << delta
        << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizationSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(OptimizationEquivalenceTest, AllZeroScoresSelectNothing) {
  const TransitionScores transition = FromScores({0.0, 0.0, 0.0});
  // Any positive delta is satisfied by the empty set.
  EXPECT_TRUE(SelectAnomalousEdges(transition, 0.5).empty());
  EXPECT_EQ(BruteForceMinimalCardinality({0.0, 0.0, 0.0}, 0.5), 0u);
}

TEST(OptimizationEquivalenceTest, DeltaAboveTotalSelectsNothing) {
  const std::vector<double> scores = {3.0, 2.0, 1.0};
  const TransitionScores transition = FromScores(scores);
  EXPECT_TRUE(SelectAnomalousEdges(transition, 6.5).empty());
  EXPECT_EQ(BruteForceMinimalCardinality(scores, 6.5), 0u);
}

}  // namespace
}  // namespace cad
