#include "graph/graph.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "graph/snapshot.h"

namespace cad {
namespace {

TEST(NodePairTest, MakeNormalizesOrientation) {
  const NodePair p = NodePair::Make(5, 2);
  EXPECT_EQ(p.u, 2u);
  EXPECT_EQ(p.v, 5u);
  EXPECT_EQ(p, NodePair::Make(2, 5));
}

TEST(NodePairTest, KeyIsInjective) {
  EXPECT_NE(NodePair::Make(0, 1).Key(), NodePair::Make(1, 2).Key());
  EXPECT_NE(NodePair::Make(0, 2).Key(), NodePair::Make(0, 3).Key());
}

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(Snapshot(g).volume(), 0.0);
  EXPECT_TRUE(g.Edges().empty());
}

TEST(WeightedGraphTest, SetAndGetEdge) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.5).ok());
  EXPECT_EQ(g.EdgeWeight(0, 1), 2.5);
  EXPECT_EQ(g.EdgeWeight(1, 0), 2.5);  // undirected
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(WeightedGraphTest, ZeroWeightDeletesEdge) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(0, 1, 0.0).ok());
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(WeightedGraphTest, RejectsSelfLoop) {
  WeightedGraph g(3);
  EXPECT_EQ(g.SetEdge(1, 1, 1.0).code(), StatusCode::kInvalidArgument);
}

TEST(WeightedGraphTest, RejectsOutOfRange) {
  WeightedGraph g(3);
  EXPECT_EQ(g.SetEdge(0, 3, 1.0).code(), StatusCode::kOutOfRange);
}

TEST(WeightedGraphTest, RejectsNegativeAndNonFiniteWeights) {
  WeightedGraph g(3);
  EXPECT_FALSE(g.SetEdge(0, 1, -1.0).ok());
  EXPECT_FALSE(g.SetEdge(0, 1, std::nan("")).ok());
  EXPECT_FALSE(g.SetEdge(0, 1, std::numeric_limits<double>::infinity()).ok());
}

TEST(WeightedGraphTest, AddEdgeWeightAccumulates) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdgeWeight(0, 1, 1.5).ok());
  ASSERT_TRUE(g.AddEdgeWeight(1, 0, 2.0).ok());
  EXPECT_EQ(g.EdgeWeight(0, 1), 3.5);
  EXPECT_FALSE(g.AddEdgeWeight(0, 1, -10.0).ok());
  ASSERT_TRUE(g.AddEdgeWeight(0, 1, -3.5).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(WeightedGraphTest, EdgesSortedCanonical) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(3, 2, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 0, 2.0).ok());
  const std::vector<Edge> edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_EQ(edges[1].u, 2u);
  EXPECT_EQ(edges[1].v, 3u);
}

TEST(WeightedGraphTest, DegreesAndVolume) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 3.0).ok());
  const Snapshot snapshot(g);
  EXPECT_EQ(snapshot.weighted_degrees(), (std::vector<double>{2, 5, 3}));
  EXPECT_EQ(g.Degrees(), (std::vector<size_t>{1, 2, 1}));
  EXPECT_EQ(snapshot.volume(), 10.0);
}

TEST(WeightedGraphTest, AdjacencyCsrIsSymmetric) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 3.0).ok());
  const CsrMatrix a = ToAdjacencyCsr(g);
  EXPECT_TRUE(a.IsSymmetric());
  EXPECT_EQ(a.At(0, 1), 2.0);
  EXPECT_EQ(a.At(2, 1), 3.0);
  EXPECT_EQ(a.nnz(), 4u);
}

TEST(WeightedGraphTest, LaplacianRowSumsAreZero) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 0.5).ok());
  const CsrMatrix l = ToLaplacianCsr(g);
  for (double row_sum : l.RowSums()) EXPECT_NEAR(row_sum, 0.0, 1e-12);
  EXPECT_EQ(l.At(1, 1), 3.0);
  EXPECT_EQ(l.At(1, 2), -2.0);
}

TEST(WeightedGraphTest, LaplacianRegularizationOnDiagonal) {
  WeightedGraph g(2);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  const CsrMatrix l = ToLaplacianCsr(g, 0.25);
  EXPECT_DOUBLE_EQ(l.At(0, 0), 1.25);
  EXPECT_DOUBLE_EQ(l.At(1, 1), 1.25);
}

TEST(WeightedGraphTest, DenseMatchesSparse) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.5).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 2.5).ok());
  EXPECT_EQ(ToLaplacianDense(g, 0.1).MaxAbsDifference(
                ToLaplacianCsr(g, 0.1).ToDense()),
            0.0);
}

TEST(WeightedGraphTest, AdjacencyListsSortedAndSymmetric) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(2, 0, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  const auto lists = g.AdjacencyLists();
  ASSERT_EQ(lists[0].size(), 2u);
  EXPECT_EQ(lists[0][0].node, 1u);
  EXPECT_EQ(lists[0][1].node, 2u);
  EXPECT_EQ(lists[1][0].weight, 2.0);
  EXPECT_EQ(lists[2][0].node, 0u);
}

TEST(WeightedGraphTest, EqualityAndToString) {
  WeightedGraph a(2);
  WeightedGraph b(2);
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(a.SetEdge(0, 1, 1.0).ok());
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString().find("n=2"), std::string::npos);
  EXPECT_NE(a.ToString().find("m=1"), std::string::npos);
}

TEST(WeightedGraphTest, EdgeWeightOutOfRangeQueriesReturnZero) {
  WeightedGraph g(2);
  EXPECT_EQ(g.EdgeWeight(0, 7), 0.0);
  EXPECT_EQ(g.EdgeWeight(3, 3), 0.0);
}

}  // namespace
}  // namespace cad
