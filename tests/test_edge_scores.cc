#include "core/edge_scores.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "commute/exact_commute.h"
#include "reference_selection.h"

namespace cad {
namespace {

/// Fake oracle with a constant commute time between all distinct pairs.
class ConstantOracle : public CommuteTimeOracle {
 public:
  ConstantOracle(size_t n, double value) : n_(n), value_(value) {}
  double CommuteTime(NodeId u, NodeId v) const override {
    return u == v ? 0.0 : value_;
  }
  size_t num_nodes() const override { return n_; }

 private:
  size_t n_;
  double value_;
};

TEST(EdgeScoreKindTest, Names) {
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kCad), "CAD");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kAdj), "ADJ");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kCom), "COM");
  EXPECT_STREQ(EdgeScoreKindToString(EdgeScoreKind::kSum), "SUM");
}

TEST(EdgeScoresTest, SupportIsUnionOfEdgeSets) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(2, 3, 2.0).ok());
  ConstantOracle o1(4, 1.0);
  ConstantOracle o2(4, 2.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  EXPECT_EQ(scores.edges.size(), 2u);
}

TEST(EdgeScoresTest, CadScoreIsProductOfDeltas) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 3.0).ok());
  ConstantOracle o1(2, 5.0);
  ConstantOracle o2(2, 2.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  ASSERT_EQ(scores.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(scores.edges[0].weight_delta, 2.0);
  EXPECT_DOUBLE_EQ(scores.edges[0].commute_delta, -3.0);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 6.0);  // |2| * |-3|
  EXPECT_DOUBLE_EQ(scores.total_score, 6.0);
}

TEST(EdgeScoresTest, AdjIgnoresCommuteChange) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 4.0).ok());
  ConstantOracle o1(2, 100.0);
  ConstantOracle o2(2, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kAdj);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 3.0);
}

TEST(EdgeScoresTest, ComIgnoresWeightChange) {
  WeightedGraph before(2);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(2);
  ASSERT_TRUE(after.SetEdge(0, 1, 4.0).ok());
  ConstantOracle o1(2, 100.0);
  ConstantOracle o2(2, 40.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCom);
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 60.0);
}

TEST(EdgeScoresTest, SumNormalizesBothTerms) {
  WeightedGraph before(3);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(1, 2, 1.0).ok());
  WeightedGraph after(3);
  ASSERT_TRUE(after.SetEdge(0, 1, 3.0).ok());  // dA = 2 (max)
  ASSERT_TRUE(after.SetEdge(1, 2, 2.0).ok());  // dA = 1
  ConstantOracle o1(3, 1.0);
  ConstantOracle o2(3, 1.0);  // dc = 0 for all
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kSum);
  // Top edge: |dA|/max = 1, dc term 0 -> 1.0.
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 1.0);
  EXPECT_DOUBLE_EQ(scores.edges[1].score, 0.5);
}

TEST(EdgeScoresTest, UnchangedEdgeScoresZeroUnderCad) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ConstantOracle o1(3, 1.0);
  ConstantOracle o2(3, 9.0);  // commute changed everywhere
  const TransitionScores scores =
      ComputeTransitionScores(g, g, o1, o2, EdgeScoreKind::kCad);
  // dA = 0 kills the product even though dc is large.
  EXPECT_DOUBLE_EQ(scores.edges[0].score, 0.0);
}

TEST(EdgeScoresTest, EdgesSortedByScoreDescending) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(2, 3, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(after.SetEdge(2, 3, 9.0).ok());
  ConstantOracle o1(4, 2.0);
  ConstantOracle o2(4, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  ASSERT_EQ(scores.edges.size(), 2u);
  EXPECT_GE(scores.edges[0].score, scores.edges[1].score);
  EXPECT_EQ(scores.edges[0].pair, NodePair::Make(2, 3));
}

TEST(EdgeScoresTest, NodeScoresAggregateIncidentEdges) {
  WeightedGraph before(3);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(before.SetEdge(1, 2, 1.0).ok());
  WeightedGraph after(3);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(after.SetEdge(1, 2, 3.0).ok());
  ConstantOracle o1(3, 2.0);
  ConstantOracle o2(3, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  // Edge scores: (0,1): 1*1 = 1; (1,2): 2*1 = 2.
  EXPECT_DOUBLE_EQ(scores.node_scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores.node_scores[1], 3.0);
  EXPECT_DOUBLE_EQ(scores.node_scores[2], 2.0);
}

TEST(SelectAnomalousEdgesTest, PeelsUntilRemainderBelowDelta) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 5.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 3.0, 0, 0},
      ScoredEdge{NodePair{2, 3}, 1.0, 0, 0},
  };
  scores.total_score = 9.0;
  scores.BuildSelectionIndex();
  // delta = 4: remaining after {5} is 4 -> not < 4, peel {3} too -> 1 < 4.
  EXPECT_EQ(SelectAnomalousEdges(scores, 4.0), (std::vector<size_t>{0, 1}));
  // delta = 10 > total: nothing anomalous.
  EXPECT_TRUE(SelectAnomalousEdges(scores, 10.0).empty());
  // delta = 0.5: everything with positive score gets selected.
  EXPECT_EQ(SelectAnomalousEdges(scores, 0.5).size(), 3u);
}

TEST(SelectAnomalousEdgesTest, ZeroScoreEdgesNeverSelected) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 2.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 0.0, 0, 0},
  };
  scores.total_score = 2.0;
  scores.BuildSelectionIndex();
  // Even with delta <= 0 (impossible to satisfy), zero-score edges must not
  // be flagged.
  EXPECT_EQ(SelectAnomalousEdges(scores, 0.0), (std::vector<size_t>{0}));
}

TEST(SelectionIndexTest, BuildComputesPositiveCountAndPrefixes) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{0, 1}, 5.0, 0, 0},
      ScoredEdge{NodePair{1, 2}, 3.0, 0, 0},  // shares node 1
      ScoredEdge{NodePair{3, 4}, 1.0, 0, 0},
      ScoredEdge{NodePair{5, 6}, 0.0, 0, 0},  // zero score: excluded
  };
  scores.total_score = 9.0;
  scores.BuildSelectionIndex();
  ASSERT_TRUE(scores.has_selection_index());
  EXPECT_EQ(scores.num_positive, 3u);
  ASSERT_EQ(scores.remaining_mass.size(), 3u);
  EXPECT_EQ(scores.remaining_mass[0], 9.0);
  EXPECT_EQ(scores.remaining_mass[1], 4.0);
  EXPECT_EQ(scores.remaining_mass[2], 1.0);
  // prefix_nodes[k] = distinct endpoints among the first k edges.
  EXPECT_EQ(scores.prefix_nodes,
            (std::vector<size_t>{0, 2, 3, 5}));
}

TEST(SelectionIndexTest, ComputeTransitionScoresBuildsIndex) {
  WeightedGraph before(4);
  ASSERT_TRUE(before.SetEdge(0, 1, 1.0).ok());
  WeightedGraph after(4);
  ASSERT_TRUE(after.SetEdge(0, 1, 2.0).ok());
  ConstantOracle o1(4, 2.0);
  ConstantOracle o2(4, 1.0);
  const TransitionScores scores =
      ComputeTransitionScores(before, after, o1, o2, EdgeScoreKind::kCad);
  EXPECT_TRUE(scores.has_selection_index());
}

TEST(SelectionIndexTest, IndexedSelectionMatchesLegacyPeelBitwise) {
  // The binary search over remaining_mass must reproduce the reference
  // peel loop exactly — same floating-point comparisons, same counts — for
  // any delta. remaining_mass stores the successive-subtraction values the peel
  // loop would compute, so this holds bitwise, not just approximately.
  TransitionScores indexed;
  indexed.edges = {
      ScoredEdge{NodePair{0, 1}, 0.3, 0, 0},
      ScoredEdge{NodePair{1, 2}, 0.1 + 0.2, 0, 0},  // == 0.30000000000000004
      ScoredEdge{NodePair{2, 3}, 0.1, 0, 0},
      ScoredEdge{NodePair{3, 4}, 1e-9, 0, 0},
      ScoredEdge{NodePair{4, 5}, 0.0, 0, 0},
  };
  std::sort(indexed.edges.begin(), indexed.edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              return a.score > b.score;
            });
  for (const ScoredEdge& edge : indexed.edges) {
    indexed.total_score += edge.score;
  }
  indexed.BuildSelectionIndex();

  for (double delta :
       {-1.0, 0.0, 1e-12, 1e-9, 0.05, 0.1, 0.3, 0.30000000000000004, 0.4,
        0.6000000000000001, 0.7, 0.7000000000000001, 1.0, 10.0}) {
    const size_t peeled = testing_reference::PeelCount(indexed, delta);
    EXPECT_EQ(CountSelectedEdges(indexed, delta), peeled) << "delta=" << delta;
    EXPECT_EQ(SelectAnomalousEdges(indexed, delta).size(), peeled)
        << "delta=" << delta;
  }
}

TEST(EndpointUnionTest, DeduplicatesAndSorts) {
  TransitionScores scores;
  scores.edges = {
      ScoredEdge{NodePair{2, 5}, 3.0, 0, 0},
      ScoredEdge{NodePair{0, 2}, 2.0, 0, 0},
  };
  const std::vector<NodeId> nodes = EndpointUnion(scores, {0, 1});
  EXPECT_EQ(nodes, (std::vector<NodeId>{0, 2, 5}));
  EXPECT_TRUE(EndpointUnion(scores, {}).empty());
}

TEST(EdgeScoresTest, ToyCase2NewEdgeBridgingClusters) {
  // Two triangles; the transition adds a bridge. Under CAD the bridge's
  // score must dominate: dA > 0 and commute distance collapses.
  WeightedGraph before(6);
  for (auto [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}) {
    ASSERT_TRUE(before.SetEdge(u, v, 2.0).ok());
  }
  WeightedGraph after = before;
  ASSERT_TRUE(after.SetEdge(0, 3, 2.0).ok());
  // Also a benign jiggle inside a triangle.
  ASSERT_TRUE(after.SetEdge(0, 1, 2.2).ok());

  auto o1 = ExactCommuteTime::Build(before);
  auto o2 = ExactCommuteTime::Build(after);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  const TransitionScores scores =
      ComputeTransitionScores(before, after, *o1, *o2, EdgeScoreKind::kCad);
  EXPECT_EQ(scores.edges[0].pair, NodePair::Make(0, 3));
  EXPECT_GT(scores.edges[0].score, 10.0 * scores.edges[1].score);
}

}  // namespace
}  // namespace cad
