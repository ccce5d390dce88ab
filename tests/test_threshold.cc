#include "core/threshold.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "reference_selection.h"

namespace cad {
namespace {

TransitionScores MakeScores(std::vector<double> values) {
  TransitionScores scores;
  NodeId next = 0;
  for (double v : values) {
    scores.edges.push_back(ScoredEdge{NodePair{next, next + 1}, v, 0, 0});
    next += 2;  // disjoint endpoints: 2 nodes per edge
    scores.total_score += v;
  }
  scores.node_scores.assign(2 * values.size(), 0.0);
  scores.BuildSelectionIndex();
  return scores;
}

TEST(ApplyThresholdTest, ProducesReportsPerTransition) {
  std::vector<TransitionScores> all = {MakeScores({5, 1}), MakeScores({0.5})};
  const std::vector<AnomalyReport> reports = ApplyThreshold(all, 2.0);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].transition, 0u);
  EXPECT_EQ(reports[1].transition, 1u);
  // Transition 0: total 6 >= 2, peel 5 -> remaining 1 < 2. One edge.
  EXPECT_EQ(reports[0].edges.size(), 1u);
  EXPECT_EQ(reports[0].nodes.size(), 2u);
  // Transition 1: total 0.5 < 2: calm, nothing flagged.
  EXPECT_TRUE(reports[1].edges.empty());
  EXPECT_TRUE(reports[1].nodes.empty());
}

TEST(ApplyThresholdTest, EdgesKeepDescendingOrder) {
  std::vector<TransitionScores> all = {MakeScores({5, 4, 3})};
  const std::vector<AnomalyReport> reports = ApplyThreshold(all, 1.0);
  ASSERT_EQ(reports[0].edges.size(), 3u);
  EXPECT_GE(reports[0].edges[0].score, reports[0].edges[1].score);
  EXPECT_GE(reports[0].edges[1].score, reports[0].edges[2].score);
}

TEST(CountAnomalousNodesTest, CountsAcrossTransitions) {
  std::vector<TransitionScores> all = {MakeScores({5, 1}), MakeScores({7})};
  // delta = 2: transition 0 flags 1 edge (2 nodes); transition 1 flags 1
  // edge (2 nodes).
  EXPECT_EQ(CountAnomalousNodes(all, 2.0), 4u);
  // Huge delta: nothing.
  EXPECT_EQ(CountAnomalousNodes(all, 100.0), 0u);
}

TEST(CountAnomalousNodesTest, MonotoneNonIncreasingInDelta) {
  std::vector<TransitionScores> all = {MakeScores({9, 4, 2, 1}),
                                       MakeScores({3, 3})};
  size_t previous = CountAnomalousNodes(all, 0.01);
  for (double delta : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const size_t count = CountAnomalousNodes(all, delta);
    EXPECT_LE(count, previous);
    previous = count;
  }
}

TEST(SelectionIndexEquivalenceTest, CountAnomalousNodesMatchesLegacy) {
  std::vector<TransitionScores> indexed = {MakeScores({9, 4, 2, 1, 0}),
                                           MakeScores({3, 3}),
                                           MakeScores({0.25})};
  // Overlapping endpoints exercise the prefix_nodes table against the
  // reference's materialized EndpointUnion.
  indexed.push_back(MakeScores({6, 5}));
  indexed.back().edges[1].pair = NodePair{0, 1};  // same nodes as edge 0
  for (TransitionScores& scores : indexed) scores.BuildSelectionIndex();
  for (double delta : {0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0, 11.0, 100.0}) {
    EXPECT_EQ(CountAnomalousNodes(indexed, delta),
              testing_reference::PeelAnomalousNodes(indexed, delta))
        << "delta=" << delta;
  }
}

TEST(SelectionIndexEquivalenceTest, CalibrateDeltaMatchesLegacyBitwise) {
  // CalibrateDelta bisects on CountAnomalousNodes; identical counts at every
  // probe force an identical (bitwise) final delta.
  std::vector<TransitionScores> indexed = {MakeScores({8.5, 4.25, 2.0, 1e-3}),
                                           MakeScores({3, 3, 0.5}),
                                           MakeScores({0.125, 0.0})};
  for (double target : {0.0, 0.5, 1.0, 2.0, 3.5, 6.0, 100.0}) {
    EXPECT_EQ(CalibrateDelta(indexed, target),
              testing_reference::PeelCalibrateDelta(indexed, target))
        << "target=" << target;
  }
}

TEST(SelectionIndexEquivalenceTest, ApplyThresholdMatchesLegacy) {
  std::vector<TransitionScores> indexed = {MakeScores({9, 4, 2, 1}),
                                           MakeScores({0.5})};
  for (double delta : {0.5, 2.0, 7.0, 20.0}) {
    const std::vector<AnomalyReport> reports = ApplyThreshold(indexed, delta);
    ASSERT_EQ(reports.size(), indexed.size());
    for (size_t t = 0; t < reports.size(); ++t) {
      const size_t peeled = testing_reference::PeelCount(indexed[t], delta);
      std::vector<size_t> prefix(peeled);
      for (size_t i = 0; i < peeled; ++i) prefix[i] = i;
      EXPECT_EQ(reports[t].transition, t);
      EXPECT_EQ(reports[t].nodes, EndpointUnion(indexed[t], prefix));
      EXPECT_EQ(reports[t].edges.size(), peeled);
    }
  }
}

TEST(CalibrateDeltaTest, HitsExactTargetWhenAchievable) {
  // One transition, disjoint edges: flagging k edges = 2k nodes.
  std::vector<TransitionScores> all = {MakeScores({8, 4, 2, 1})};
  // Target 4 nodes per transition = 2 edges.
  const double delta = CalibrateDelta(all, 4.0);
  EXPECT_EQ(CountAnomalousNodes(all, delta), 4u);
}

TEST(CalibrateDeltaTest, CalmTransitionsStayCalm) {
  // The paper's rationale for a single global threshold: a quiet transition
  // must report nothing even when the average target is positive.
  std::vector<TransitionScores> all = {MakeScores({100, 90}),
                                       MakeScores({0.01})};
  const double delta = CalibrateDelta(all, 2.0);
  const std::vector<AnomalyReport> reports = ApplyThreshold(all, delta);
  EXPECT_FALSE(reports[0].nodes.empty());
  EXPECT_TRUE(reports[1].nodes.empty());
}

TEST(CalibrateDeltaTest, EmptyInput) {
  EXPECT_EQ(CalibrateDelta({}, 5.0), 0.0);
}

TEST(CalibrateDeltaTest, AllZeroScores) {
  std::vector<TransitionScores> all = {MakeScores({0, 0})};
  const double delta = CalibrateDelta(all, 5.0);
  EXPECT_EQ(CountAnomalousNodes(all, delta), 0u);
}

TEST(CalibrateDeltaTest, ZeroTargetFlagsNothing) {
  std::vector<TransitionScores> all = {MakeScores({5, 3})};
  const double delta = CalibrateDelta(all, 0.0);
  EXPECT_EQ(CountAnomalousNodes(all, delta), 0u);
}

TEST(CalibrateDeltaTest, TargetBeyondSupplyFlagsEverything) {
  std::vector<TransitionScores> all = {MakeScores({5, 3})};
  const double delta = CalibrateDelta(all, 100.0);
  // Only 2 edges exist -> 4 nodes max.
  EXPECT_EQ(CountAnomalousNodes(all, delta), 4u);
}

}  // namespace
}  // namespace cad
