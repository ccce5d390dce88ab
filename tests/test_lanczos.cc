#include "linalg/lanczos.h"

#include <cmath>

#include <gtest/gtest.h>

#include "datagen/random_graphs.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "linalg/vector_ops.h"

namespace cad {
namespace {

CsrMatrix DiagonalMatrix(const std::vector<double>& values) {
  CooMatrix coo(values.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    coo.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i), values[i]);
  }
  return coo.ToCsr();
}

TEST(LanczosTest, SmallestOfDiagonal) {
  const CsrMatrix a = DiagonalMatrix({5, 1, 9, 3, 7, 2, 8, 4, 6, 0.5});
  LanczosOptions options;
  options.num_eigenpairs = 3;
  auto result = SmallestEigenpairs(a, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 0.5, 1e-8);
  EXPECT_NEAR(result->eigenvalues[1], 1.0, 1e-8);
  EXPECT_NEAR(result->eigenvalues[2], 2.0, 1e-8);
}

TEST(LanczosTest, EigenvectorsSatisfyDefinition) {
  RandomGraphOptions opts;
  opts.num_nodes = 80;
  opts.average_degree = 6.0;
  opts.seed = 4;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = ToLaplacianCsr(g);
  LanczosOptions options;
  options.num_eigenpairs = 4;
  auto result = SmallestEigenpairs(l, options);
  ASSERT_TRUE(result.ok());
  for (size_t k = 0; k < 4; ++k) {
    std::vector<double> v(80);
    for (size_t i = 0; i < 80; ++i) v[i] = result->eigenvectors(i, k);
    std::vector<double> lv(80, 0.0);
    l.MultiplyAccumulate(1.0, v, &lv);
    Axpy(-result->eigenvalues[k], v, &lv);
    EXPECT_LT(Norm2(lv), 1e-6) << "pair " << k;
    EXPECT_NEAR(Norm2(v), 1.0, 1e-9);
  }
}

TEST(LanczosTest, LaplacianSmallestIsZeroWithConstantVector) {
  WeightedGraph g(12);
  for (NodeId i = 0; i + 1 < 12; ++i) CAD_CHECK_OK(g.SetEdge(i, i + 1, 1.0));
  CAD_CHECK_OK(g.SetEdge(0, 11, 1.0));  // ring
  auto result = SmallestEigenpairs(ToLaplacianCsr(g));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 0.0, 1e-8);
  // The corresponding eigenvector is constant.
  const double first = result->eigenvectors(0, 0);
  for (size_t i = 1; i < 12; ++i) {
    EXPECT_NEAR(result->eigenvectors(i, 0), first, 1e-6);
  }
  // Ring Fiedler value: 2 - 2 cos(2 pi / 12).
  EXPECT_NEAR(result->eigenvalues[1],
              2.0 - 2.0 * std::cos(2.0 * M_PI / 12.0), 1e-7);
}

TEST(LanczosTest, EigenvaluesAscending) {
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  const CsrMatrix l = ToLaplacianCsr(MakeRandomSparseGraph(opts));
  LanczosOptions options;
  options.num_eigenpairs = 5;
  auto small = SmallestEigenpairs(l, options);
  ASSERT_TRUE(small.ok());
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_LE(small->eigenvalues[i - 1], small->eigenvalues[i] + 1e-12);
  }
}

TEST(LanczosTest, RejectsBadArguments) {
  const CsrMatrix a = DiagonalMatrix({1, 2, 3});
  LanczosOptions zero;
  zero.num_eigenpairs = 0;
  EXPECT_FALSE(SmallestEigenpairs(a, zero).ok());
  LanczosOptions too_many;
  too_many.num_eigenpairs = 4;
  EXPECT_FALSE(SmallestEigenpairs(a, too_many).ok());
  CsrMatrix rect(2, 3);
  EXPECT_FALSE(SmallestEigenpairs(rect).ok());
}

TEST(LanczosTest, ConvergedFlagSetOnEasyProblem) {
  const CsrMatrix a = DiagonalMatrix({1, 2, 3, 4, 5, 6, 7, 8});
  auto result = SmallestEigenpairs(a);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  for (double r : result->residuals) EXPECT_LT(r, 1e-8);
}

}  // namespace
}  // namespace cad
