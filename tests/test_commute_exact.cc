#include "commute/exact_commute.h"

#include <cmath>

#include <gtest/gtest.h>

#include "datagen/random_graphs.h"
#include "graph/snapshot.h"
#include "linalg/jacobi_eigen.h"

namespace cad {
namespace {

WeightedGraph UnitPath(size_t n) {
  WeightedGraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) CAD_CHECK_OK(g.SetEdge(i, i + 1, 1.0));
  return g;
}

TEST(ExactCommuteTest, TwoNodesSingleEdge) {
  // For two nodes joined by one edge, the walk crosses and returns: c = 2,
  // independent of the edge weight (V_G = 2w, resistance = 1/w).
  for (double weight : {0.5, 1.0, 4.0}) {
    WeightedGraph g(2);
    ASSERT_TRUE(g.SetEdge(0, 1, weight).ok());
    auto oracle = ExactCommuteTime::Build(g);
    ASSERT_TRUE(oracle.ok());
    EXPECT_NEAR(oracle->CommuteTime(0, 1), 2.0, 1e-9);
  }
}

TEST(ExactCommuteTest, UnitPathKnownValues) {
  // Unit path on n nodes: V_G = 2(n-1), resistance(i,j) = |i-j|,
  // so c(i,j) = 2(n-1)|i-j|.
  const size_t n = 6;
  auto oracle = ExactCommuteTime::Build(UnitPath(n));
  ASSERT_TRUE(oracle.ok());
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      const double expected = 2.0 * (n - 1) * std::fabs(double(i) - double(j));
      EXPECT_NEAR(oracle->CommuteTime(i, j), expected, 1e-8)
          << "pair " << i << "," << j;
    }
  }
}

TEST(ExactCommuteTest, CompleteGraphKnownValue) {
  // K_n with unit weights: resistance = 2/n, V_G = n(n-1), c = 2(n-1).
  const size_t n = 7;
  WeightedGraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) ASSERT_TRUE(g.SetEdge(i, j, 1.0).ok());
  }
  auto oracle = ExactCommuteTime::Build(g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(oracle->CommuteTime(0, 1), 2.0 * (n - 1), 1e-8);
}

TEST(ExactCommuteTest, SelfDistanceIsZero) {
  auto oracle = ExactCommuteTime::Build(UnitPath(4));
  ASSERT_TRUE(oracle.ok());
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(oracle->CommuteTime(i, i), 0.0);
}

TEST(ExactCommuteTest, MatchesEigendecompositionPseudoinverse) {
  // Cross-check the Cholesky + rank-one-shift construction against the
  // spectral pseudoinverse on an irregular weighted graph.
  WeightedGraph g(6);
  ASSERT_TRUE(g.SetEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 3.0).ok());
  ASSERT_TRUE(g.SetEdge(3, 4, 1.5).ok());
  ASSERT_TRUE(g.SetEdge(4, 5, 2.5).ok());
  ASSERT_TRUE(g.SetEdge(1, 5, 0.25).ok());

  auto oracle = ExactCommuteTime::Build(g);
  ASSERT_TRUE(oracle.ok());
  auto lplus = SymmetricPseudoInverse(ToLaplacianDense(g));
  ASSERT_TRUE(lplus.ok());
  const double volume = Snapshot(g).volume();
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) {
      const double expected =
          i == j ? 0.0
                 : volume * ((*lplus)(i, i) + (*lplus)(j, j) -
                             2.0 * (*lplus)(i, j));
      EXPECT_NEAR(oracle->CommuteTime(i, j), expected, 1e-7);
    }
  }
}

TEST(ExactCommuteTest, CrossComponentPaperModeUsesGlobalPseudoinverse) {
  // Default (paper-faithful) policy: Eq. 3 evaluated on the global L+, so
  // across components c = V_G (l+_uu + l+_vv). For two disjoint unit edges,
  // each component block has l+_ii = 0.25 and V_G = 4:
  //   c(0,2) = 4 * (0.25 + 0.25) = 2, while c(0,1) = 4 * 1 = 4.
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 1.0).ok());
  auto oracle = ExactCommuteTime::Build(g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(oracle->CommuteTime(0, 2), 2.0, 1e-9);
  EXPECT_NEAR(oracle->CommuteTime(1, 3), 2.0, 1e-9);
  EXPECT_NEAR(oracle->CommuteTime(0, 1), 4.0, 1e-9);
}

TEST(ExactCommuteTest, CrossComponentStrictModeUsesSentinel) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 1.0).ok());
  CommuteTimeOptions options;
  options.use_cross_component_sentinel = true;
  auto oracle = ExactCommuteTime::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  const double sentinel = Snapshot(g).volume() * 4.0;  // default scale 1.0
  EXPECT_DOUBLE_EQ(oracle->CommuteTime(0, 2), sentinel);
  EXPECT_DOUBLE_EQ(oracle->CommuteTime(1, 3), sentinel);
  // The sentinel dominates every within-component distance.
  EXPECT_GT(oracle->CommuteTime(0, 2), oracle->CommuteTime(0, 1));
}

TEST(ExactCommuteTest, IsolatedNodes) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  auto oracle = ExactCommuteTime::Build(g);
  ASSERT_TRUE(oracle.ok());
  // Paper mode: the isolated node has l+_22 = 0, so c(0,2) = V_G * l+_00 =
  // 2 * 0.25 = 0.5 — finite and *small*, so a silent node does not dominate.
  EXPECT_NEAR(oracle->CommuteTime(0, 2), 0.5, 1e-9);
  EXPECT_EQ(oracle->CommuteTime(2, 2), 0.0);
  // Strict mode: the isolated node is "infinitely" far instead.
  CommuteTimeOptions strict;
  strict.use_cross_component_sentinel = true;
  auto strict_oracle = ExactCommuteTime::Build(g, strict);
  ASSERT_TRUE(strict_oracle.ok());
  EXPECT_GT(strict_oracle->CommuteTime(0, 2),
            strict_oracle->CommuteTime(0, 1));
}

TEST(ExactCommuteTest, WeakerBridgeIncreasesCommuteTime) {
  // Weakening an edge must increase the commute time across it (Rayleigh
  // monotonicity) even as the volume shrinks in this construction.
  WeightedGraph strong(4);
  ASSERT_TRUE(strong.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(strong.SetEdge(1, 2, 4.0).ok());
  ASSERT_TRUE(strong.SetEdge(2, 3, 1.0).ok());
  WeightedGraph weak = strong;
  ASSERT_TRUE(weak.SetEdge(1, 2, 0.5).ok());
  auto strong_oracle = ExactCommuteTime::Build(strong);
  auto weak_oracle = ExactCommuteTime::Build(weak);
  ASSERT_TRUE(strong_oracle.ok());
  ASSERT_TRUE(weak_oracle.ok());
  EXPECT_GT(weak_oracle->CommuteTime(1, 2), strong_oracle->CommuteTime(1, 2));
}

TEST(ExactCommuteTest, CommuteTimeMatrixSymmetricZeroDiagonal) {
  auto oracle = ExactCommuteTime::Build(UnitPath(5));
  ASSERT_TRUE(oracle.ok());
  const DenseMatrix c = oracle->CommuteTimeMatrix();
  EXPECT_TRUE(c.IsSymmetric(1e-9));
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(c(i, i), 0.0);
}

/// Metric properties on random graphs: symmetry, non-negativity, triangle
/// inequality (commute time is a metric).
class ExactCommuteMetricSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactCommuteMetricSweep, MetricAxioms) {
  RandomGraphOptions opts;
  opts.num_nodes = 24;
  opts.average_degree = 5.0;
  opts.seed = GetParam();
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  // Strict cross-component mode: the sentinel preserves the triangle
  // inequality globally (paper mode trades metricity across components for
  // Eq. 3 faithfulness).
  CommuteTimeOptions options;
  options.use_cross_component_sentinel = true;
  auto oracle = ExactCommuteTime::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  const size_t n = g.num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const double cab = oracle->CommuteTime(a, b);
      EXPECT_GE(cab, 0.0);
      EXPECT_NEAR(cab, oracle->CommuteTime(b, a), 1e-7);
    }
  }
  // Triangle inequality on a subsample (full cubic sweep is slow).
  for (NodeId a = 0; a < n; a += 3) {
    for (NodeId b = 1; b < n; b += 3) {
      for (NodeId c = 2; c < n; c += 3) {
        EXPECT_LE(oracle->CommuteTime(a, b),
                  oracle->CommuteTime(a, c) + oracle->CommuteTime(c, b) + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactCommuteMetricSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace cad
