#include "graph/temporal_graph.h"

#include <gtest/gtest.h>

namespace cad {
namespace {

WeightedGraph GraphWithEdge(size_t n, NodeId u, NodeId v, double w) {
  WeightedGraph g(n);
  CAD_CHECK_OK(g.SetEdge(u, v, w));
  return g;
}

TEST(TemporalGraphTest, EmptySequence) {
  TemporalGraphSequence seq(10);
  EXPECT_EQ(seq.num_nodes(), 10u);
  EXPECT_EQ(seq.num_snapshots(), 0u);
  EXPECT_EQ(seq.num_transitions(), 0u);
  EXPECT_EQ(seq.AverageEdgesPerSnapshot(), 0.0);
}

TEST(TemporalGraphTest, AppendAndAccess) {
  TemporalGraphSequence seq(3);
  ASSERT_TRUE(seq.Append(GraphWithEdge(3, 0, 1, 1.0)).ok());
  ASSERT_TRUE(seq.Append(GraphWithEdge(3, 1, 2, 2.0)).ok());
  EXPECT_EQ(seq.num_snapshots(), 2u);
  EXPECT_EQ(seq.num_transitions(), 1u);
  EXPECT_EQ(seq.Snapshot(0).EdgeWeight(0, 1), 1.0);
  EXPECT_EQ(seq.Snapshot(1).EdgeWeight(1, 2), 2.0);
}

TEST(TemporalGraphTest, RejectsNodeCountMismatch) {
  TemporalGraphSequence seq(3);
  EXPECT_EQ(seq.Append(WeightedGraph(4)).code(),
            StatusCode::kInvalidArgument);
}

TEST(TemporalGraphTest, SingleSnapshotHasNoTransitions) {
  TemporalGraphSequence seq(2);
  ASSERT_TRUE(seq.Append(WeightedGraph(2)).ok());
  EXPECT_EQ(seq.num_transitions(), 0u);
}

TEST(TemporalGraphTest, AverageEdges) {
  TemporalGraphSequence seq(4);
  WeightedGraph g1(4);
  ASSERT_TRUE(g1.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g1.SetEdge(2, 3, 1.0).ok());
  ASSERT_TRUE(seq.Append(g1).ok());
  ASSERT_TRUE(seq.Append(GraphWithEdge(4, 0, 2, 1.0)).ok());
  EXPECT_DOUBLE_EQ(seq.AverageEdgesPerSnapshot(), 1.5);
}

}  // namespace
}  // namespace cad
