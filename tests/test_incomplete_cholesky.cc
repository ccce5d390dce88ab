#include "linalg/incomplete_cholesky.h"

#include "commute/approx_commute.h"

#include <gtest/gtest.h>

#include "datagen/random_graphs.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "linalg/cholesky.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/vector_ops.h"

namespace cad {
namespace {

CsrMatrix SpdTridiagonal(size_t n) {
  CooMatrix coo(n, n);
  for (size_t i = 0; i < n; ++i) {
    coo.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i), 2.0);
    if (i + 1 < n) {
      coo.AddSymmetric(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1),
                       -1.0);
    }
  }
  return coo.ToCsr();
}

TEST(IncompleteCholeskyTest, ExactOnTridiagonal) {
  // A tridiagonal SPD matrix has no fill-in, so IC(0) equals the exact
  // Cholesky factor and Apply() is an exact solve.
  const CsrMatrix a = SpdTridiagonal(30);
  auto ic = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(ic.ok());
  EXPECT_EQ(ic->shift_used(), 0.0);

  auto dense_factor = CholeskyFactorization::Factor(a.ToDense());
  ASSERT_TRUE(dense_factor.ok());
  EXPECT_LT(ic->lower().ToDense().MaxAbsDifference(dense_factor->lower()),
            1e-10);

  std::vector<double> b(30, 1.0);
  const std::vector<double> x = ic->Apply(b);
  const std::vector<double> residual = Subtract(a.Multiply(x), b);
  EXPECT_LT(Norm2(residual), 1e-9);
}

TEST(IncompleteCholeskyTest, ApplyIsSpdOperator) {
  RandomGraphOptions opts;
  opts.num_nodes = 50;
  opts.average_degree = 6.0;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = ToLaplacianCsr(g, 0.01 * Snapshot(g).volume());
  auto ic = IncompleteCholesky::Factor(l);
  ASSERT_TRUE(ic.ok());
  // M^{-1} must be symmetric: x^T M^{-1} y == y^T M^{-1} x.
  Rng rng(4);
  std::vector<double> x(50);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  EXPECT_NEAR(Dot(x, ic->Apply(y)), Dot(y, ic->Apply(x)), 1e-9);
  // And positive definite: x^T M^{-1} x > 0.
  EXPECT_GT(Dot(x, ic->Apply(x)), 0.0);
}

TEST(IncompleteCholeskyTest, RejectsNonSquareAndZeroDiagonal) {
  CsrMatrix rect(2, 3);
  EXPECT_FALSE(IncompleteCholesky::Factor(rect).ok());
  // Zero diagonal cannot be factorized even with multiplicative shifts.
  CooMatrix coo(2, 2);
  coo.AddSymmetric(0, 1, 1.0);
  EXPECT_FALSE(IncompleteCholesky::Factor(coo.ToCsr()).ok());
}

TEST(IncompleteCholeskyTest, CgWithIcConvergesFasterThanJacobi) {
  RandomGraphOptions opts;
  opts.num_nodes = 2000;
  opts.average_degree = 4.0;
  opts.seed = 17;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-8 * Snapshot(g).volume());
  std::vector<double> b(2000, 0.0);
  b[0] = 1.0;
  b[1999] = -1.0;

  CgOptions jacobi;
  jacobi.preconditioner = CgPreconditioner::kJacobi;
  CgOptions ic;
  ic.preconditioner = CgPreconditioner::kIncompleteCholesky;
  std::vector<double> x;
  auto jacobi_summary = ConjugateGradientSolver(jacobi).Solve(l, b, &x);
  auto ic_summary = ConjugateGradientSolver(ic).Solve(l, b, &x);
  ASSERT_TRUE(jacobi_summary.ok());
  ASSERT_TRUE(ic_summary.ok());
  EXPECT_LE(ic_summary->relative_residual, 1e-6);
  EXPECT_LT(ic_summary->iterations, jacobi_summary->iterations);
}

TEST(IncompleteCholeskyTest, SolveBlockAmortizesFactorization) {
  const CsrMatrix a = SpdTridiagonal(100);
  DenseMatrix rhs(100, 3);
  rhs(0, 0) = 1.0;
  rhs(50, 1) = 1.0;
  rhs(99, 2) = 1.0;
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  DenseMatrix solutions;
  auto summaries =
      ConjugateGradientSolver(options).SolveBlock(a, rhs, &solutions);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(solutions.cols(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE((*summaries)[c].converged);
    std::vector<double> x(100);
    std::vector<double> b(100);
    for (size_t i = 0; i < 100; ++i) {
      x[i] = solutions(i, c);
      b[i] = rhs(i, c);
    }
    EXPECT_LT(Norm2(Subtract(a.Multiply(x), b)), 1e-6);
  }
}

TEST(IncompleteCholeskyTest, PreconditionerNames) {
  EXPECT_STREQ(CgPreconditionerToString(CgPreconditioner::kNone), "none");
  EXPECT_STREQ(CgPreconditionerToString(CgPreconditioner::kJacobi), "jacobi");
  EXPECT_STREQ(
      CgPreconditionerToString(CgPreconditioner::kIncompleteCholesky), "ic0");
}

TEST(IncompleteCholeskyTest, ApproxCommuteWorksWithIc) {
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  ApproxCommuteOptions options;
  options.embedding_dim = 25;
  options.cg.preconditioner = CgPreconditioner::kIncompleteCholesky;
  auto oracle = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_GT(oracle->total_cg_iterations(), 0u);
}

}  // namespace
}  // namespace cad
