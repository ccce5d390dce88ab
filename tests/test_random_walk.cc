#include <gtest/gtest.h>

#include "commute/exact_commute.h"
#include "datagen/random_graphs.h"
#include "reference_random_walk.h"

namespace cad {
namespace {

using testing_reference::EstimateCommuteTimeByWalking;
using testing_reference::RandomWalkOptions;

TEST(RandomWalkTest, TwoNodeGraphCommutesInTwoSteps) {
  WeightedGraph g(2);
  CAD_CHECK_OK(g.SetEdge(0, 1, 3.0));
  auto estimate = EstimateCommuteTimeByWalking(g, 0, 1);
  ASSERT_TRUE(estimate.ok());
  // Deterministic: one step to v, one step back.
  EXPECT_DOUBLE_EQ(estimate->mean_steps, 2.0);
  EXPECT_DOUBLE_EQ(estimate->standard_error, 0.0);
  EXPECT_EQ(estimate->truncated_walks, 0u);
}

TEST(RandomWalkTest, MatchesEq3OnPathGraph) {
  // Unit path on 4 nodes: c(0,3) = 2 * volume * ... = 2(n-1)|i-j| = 18.
  WeightedGraph g(4);
  for (NodeId i = 0; i + 1 < 4; ++i) CAD_CHECK_OK(g.SetEdge(i, i + 1, 1.0));
  RandomWalkOptions options;
  options.num_walks = 20000;
  options.seed = 5;
  auto estimate = EstimateCommuteTimeByWalking(g, 0, 3, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->mean_steps, 18.0, 5.0 * estimate->standard_error);
}

TEST(RandomWalkTest, MatchesExactEngineOnWeightedGraph) {
  // The load-bearing validation: the Monte-Carlo definition of commute time
  // (paper §3.1) agrees with the algebraic Eq. 3 implementation on an
  // irregular weighted graph.
  WeightedGraph g(6);
  CAD_CHECK_OK(g.SetEdge(0, 1, 2.0));
  CAD_CHECK_OK(g.SetEdge(0, 2, 0.5));
  CAD_CHECK_OK(g.SetEdge(1, 2, 1.0));
  CAD_CHECK_OK(g.SetEdge(2, 3, 3.0));
  CAD_CHECK_OK(g.SetEdge(3, 4, 1.5));
  CAD_CHECK_OK(g.SetEdge(4, 5, 2.5));
  CAD_CHECK_OK(g.SetEdge(1, 5, 0.25));

  auto exact = ExactCommuteTime::Build(g);
  ASSERT_TRUE(exact.ok());
  RandomWalkOptions options;
  options.num_walks = 30000;
  options.seed = 11;
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 5}, {1, 3}, {2, 4}}) {
    auto estimate = EstimateCommuteTimeByWalking(g, a, b, options);
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(estimate->truncated_walks, 0u);
    EXPECT_NEAR(estimate->mean_steps, exact->CommuteTime(a, b),
                5.0 * estimate->standard_error + 0.05)
        << "pair " << a << "," << b;
  }
}

TEST(RandomWalkTest, SymmetryOfCommute) {
  WeightedGraph g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) {
    CAD_CHECK_OK(g.SetEdge(i, i + 1, 1.0 + i));
  }
  RandomWalkOptions options;
  options.num_walks = 20000;
  auto forward = EstimateCommuteTimeByWalking(g, 0, 4, options);
  options.seed = 99;
  auto backward = EstimateCommuteTimeByWalking(g, 4, 0, options);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_NEAR(forward->mean_steps, backward->mean_steps,
              5.0 * (forward->standard_error + backward->standard_error));
}

TEST(RandomWalkTest, RejectsBadArguments) {
  WeightedGraph g(4);
  CAD_CHECK_OK(g.SetEdge(0, 1, 1.0));
  CAD_CHECK_OK(g.SetEdge(2, 3, 1.0));
  EXPECT_FALSE(EstimateCommuteTimeByWalking(g, 0, 0).ok());
  EXPECT_FALSE(EstimateCommuteTimeByWalking(g, 0, 9).ok());
  // Different components: infinite commute.
  EXPECT_EQ(EstimateCommuteTimeByWalking(g, 0, 2).status().code(),
            StatusCode::kFailedPrecondition);
  RandomWalkOptions zero;
  zero.num_walks = 0;
  EXPECT_FALSE(EstimateCommuteTimeByWalking(g, 0, 1, zero).ok());
}

TEST(RandomWalkTest, TruncationReported) {
  WeightedGraph g(3);
  CAD_CHECK_OK(g.SetEdge(0, 1, 1.0));
  CAD_CHECK_OK(g.SetEdge(1, 2, 1.0));
  RandomWalkOptions options;
  options.num_walks = 50;
  options.max_steps_per_walk = 1;  // impossible to commute in one step
  auto estimate = EstimateCommuteTimeByWalking(g, 0, 2, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->truncated_walks, 50u);
}

}  // namespace
}  // namespace cad
