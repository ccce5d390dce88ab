#include "linalg/conjugate_gradient.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/random_graphs.h"
#include "graph/graph.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/vector_ops.h"
#include "reference_cg.h"

namespace cad {
namespace {

CsrMatrix SpdTridiagonal(size_t n) {
  // 2 on the diagonal, -1 off-diagonal: SPD (discrete Laplacian + boundary).
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

TEST(CgTest, SolvesIdentity) {
  CooMatrix coo(3, 3);
  for (uint32_t i = 0; i < 3; ++i) coo.Add(i, i, 1.0);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(coo.ToCsr(), {1, 2, 3}, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_LT(MaxAbsDifference(x, {1, 2, 3}), 1e-10);
}

TEST(CgTest, SolvesTridiagonal) {
  const CsrMatrix a = SpdTridiagonal(50);
  Rng rng(3);
  std::vector<double> x_true(50);
  for (double& v : x_true) v = rng.Normal();
  const std::vector<double> b = a.Multiply(x_true);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(a, b, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_LT(MaxAbsDifference(x, x_true), 1e-6);
}

TEST(CgTest, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = SpdTridiagonal(5);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(a, std::vector<double>(5), &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_EQ(summary->iterations, 0u);
  EXPECT_EQ(MaxAbs(x), 0.0);
}

TEST(CgTest, ExactConvergenceInNSteps) {
  // CG converges in at most n iterations in exact arithmetic; allow slack.
  const CsrMatrix a = SpdTridiagonal(20);
  std::vector<double> b(20, 1.0);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(a, b, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_LE(summary->iterations, 25u);
}

TEST(CgTest, PreconditionerReducesIterationsOnIllScaledSystem) {
  // Diagonal entries spanning 6 orders of magnitude.
  const size_t n = 100;
  CooMatrix coo(n, n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    coo.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i),
            std::pow(10.0, rng.Uniform(-3.0, 3.0)));
    if (i + 1 < n) {
      coo.AddSymmetric(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1),
                       1e-4);
    }
  }
  const CsrMatrix a = coo.ToCsr();
  std::vector<double> b(n, 1.0);

  CgOptions with_precond;
  with_precond.preconditioner = CgPreconditioner::kJacobi;
  CgOptions without_precond;
  without_precond.preconditioner = CgPreconditioner::kNone;
  std::vector<double> x;
  auto jac = ConjugateGradientSolver(with_precond).Solve(a, b, &x);
  auto plain = ConjugateGradientSolver(without_precond).Solve(a, b, &x);
  ASSERT_TRUE(jac.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(jac->converged);
  EXPECT_LT(jac->iterations, plain->iterations);
}

TEST(CgTest, LaplacianSystemWithBalancedRhs) {
  // Graph Laplacian is singular; with rhs orthogonal to 1 and a tiny
  // regularization the solve must converge.
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 2.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 1.0).ok());
  const CsrMatrix l = g.ToLaplacianCsr(1e-10);
  const std::vector<double> b = {1.0, -1.0, 1.0, -1.0};  // sums to zero
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(l, b, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  const std::vector<double> residual = Subtract(l.Multiply(x), b);
  EXPECT_LT(Norm2(residual), 1e-6);
}

TEST(CgTest, RejectsNonSquare) {
  CsrMatrix a(2, 3);
  std::vector<double> x;
  EXPECT_FALSE(ConjugateGradientSolver().Solve(a, {1, 2}, &x).ok());
}

TEST(CgTest, RejectsSizeMismatch) {
  const CsrMatrix a = SpdTridiagonal(4);
  std::vector<double> x;
  EXPECT_FALSE(ConjugateGradientSolver().Solve(a, {1, 2}, &x).ok());
}

TEST(CgTest, DetectsIndefiniteMatrix) {
  // [[1, 2], [2, 1]] has a negative eigenvalue; CG must flag the breakdown.
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 1.0);
  coo.AddSymmetric(0, 1, 2.0);
  std::vector<double> x;
  CgOptions options;
  options.preconditioner = CgPreconditioner::kNone;
  auto summary =
      ConjugateGradientSolver(options).Solve(coo.ToCsr(), {1.0, -3.0}, &x);
  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kNumericalError);
}

TEST(CgTest, IterationCapReportsNonConvergence) {
  const CsrMatrix a = SpdTridiagonal(200);
  std::vector<double> b(200, 1.0);
  CgOptions options;
  options.max_iterations = 2;
  options.tolerance = 1e-14;
  std::vector<double> x;
  auto summary = ConjugateGradientSolver(options).Solve(a, b, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->converged);
  EXPECT_EQ(summary->iterations, 2u);
}

/// Parameterized: random-graph Laplacian solves across sizes converge and
/// achieve the requested residual.
class CgLaplacianSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CgLaplacianSweep, ConvergesOnGraphLaplacians) {
  RandomGraphOptions opts;
  opts.num_nodes = GetParam();
  opts.average_degree = 6.0;
  opts.seed = 900 + GetParam();
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const double eps = 1e-8 * std::max(g.Volume(), 1.0);
  const CsrMatrix l = g.ToLaplacianCsr(eps);

  // Balanced rhs: difference of two indicator vectors.
  std::vector<double> b(opts.num_nodes, 0.0);
  b[0] = 1.0;
  b[opts.num_nodes - 1] = -1.0;
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(l, b, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_LE(summary->relative_residual, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgLaplacianSweep,
                         ::testing::Values(10, 50, 200, 1000));

TEST(CgWarmStartTest, ExactGuessConvergesInZeroIterations) {
  const CsrMatrix a = SpdTridiagonal(40);
  Rng rng(11);
  std::vector<double> x_true(40);
  for (double& v : x_true) v = rng.Normal();
  const std::vector<double> b = a.Multiply(x_true);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(a, b, x_true, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_EQ(summary->iterations, 0u);
  EXPECT_LT(MaxAbsDifference(x, x_true), 1e-12);
}

TEST(CgWarmStartTest, NearbyGuessReducesIterations) {
  const CsrMatrix a = SpdTridiagonal(200);
  Rng rng(12);
  std::vector<double> x_true(200);
  for (double& v : x_true) v = rng.Normal();
  const std::vector<double> b = a.Multiply(x_true);

  std::vector<double> x_cold;
  auto cold = ConjugateGradientSolver().Solve(a, b, &x_cold);
  ASSERT_TRUE(cold.ok());

  // Perturb the true solution slightly: a much better start than zero.
  std::vector<double> guess = x_true;
  for (double& v : guess) v += 1e-4 * rng.Normal();
  std::vector<double> x_warm;
  auto warm = ConjugateGradientSolver().Solve(a, b, guess, &x_warm);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->converged);
  EXPECT_LT(warm->iterations, cold->iterations);
  // The residual target is 1e-8 relative; the solution error is amplified
  // by the tridiagonal system's O(n^2) condition number.
  EXPECT_LT(MaxAbsDifference(x_warm, x_true), 1e-4);
}

TEST(CgWarmStartTest, PoorGuessStillConverges) {
  const CsrMatrix a = SpdTridiagonal(60);
  Rng rng(13);
  std::vector<double> x_true(60);
  for (double& v : x_true) v = rng.Normal();
  const std::vector<double> b = a.Multiply(x_true);
  std::vector<double> guess(60);
  for (double& v : guess) v = 100.0 * rng.Normal();
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(a, b, guess, &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_LT(MaxAbsDifference(x, x_true), 1e-6);
}

TEST(CgWarmStartTest, ZeroRhsIgnoresGuess) {
  // The b = 0 contract (x = 0, converged, 0 iterations) must hold even when
  // a nonzero guess is supplied.
  const CsrMatrix a = SpdTridiagonal(8);
  std::vector<double> x;
  auto summary = ConjugateGradientSolver().Solve(
      a, std::vector<double>(8), std::vector<double>(8, 5.0), &x);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->converged);
  EXPECT_EQ(summary->iterations, 0u);
  EXPECT_EQ(MaxAbs(x), 0.0);
}

TEST(CgWarmStartTest, ZeroGuessMatchesColdStartBitwise) {
  const CsrMatrix a = SpdTridiagonal(50);
  Rng rng(14);
  std::vector<double> b(50);
  for (double& v : b) v = rng.Normal();
  std::vector<double> x_cold;
  std::vector<double> x_zero_guess;
  auto cold = ConjugateGradientSolver().Solve(a, b, &x_cold);
  auto warm = ConjugateGradientSolver().Solve(a, b, std::vector<double>(50),
                                              &x_zero_guess);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->iterations, warm->iterations);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(x_cold[i], x_zero_guess[i]) << "component " << i;
  }
}

TEST(CgWarmStartTest, SolveMatchesReferencePcgBitwise) {
  // Solve is the k = 1 lockstep kernel; it must replay the scalar PCG
  // recurrence exactly, cold and warm, under every preconditioner.
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  opts.seed = 99;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = g.ToLaplacianCsr(1e-6 * std::max(g.Volume(), 1.0));
  Rng rng(15);
  std::vector<double> b(60);
  for (double& v : b) v = rng.Normal();
  const std::vector<double> guess(60, 0.25);
  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kNone, CgPreconditioner::kJacobi,
        CgPreconditioner::kIncompleteCholesky}) {
    SCOPED_TRACE(CgPreconditionerToString(preconditioner));
    CgOptions options;
    options.preconditioner = preconditioner;
    Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(l);
    ASSERT_TRUE(factor.ok());
    for (const bool warm : {false, true}) {
      const std::vector<double>* x0 = warm ? &guess : nullptr;
      std::vector<double> x;
      const ConjugateGradientSolver solver(options);
      auto summary =
          warm ? solver.Solve(l, b, guess, &x) : solver.Solve(l, b, &x);
      std::vector<double> x_reference;
      auto reference = testing_reference::ReferencePcg(
          l, b, options, &*factor, x0, &x_reference);
      ASSERT_TRUE(summary.ok());
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(summary->iterations, reference->iterations);
      EXPECT_EQ(summary->relative_residual, reference->relative_residual);
      ASSERT_EQ(x.size(), x_reference.size());
      EXPECT_EQ(std::memcmp(x.data(), x_reference.data(),
                            x.size() * sizeof(double)),
                0);
    }
  }
}

TEST(CgWarmStartTest, RejectsGuessSizeMismatch) {
  const CsrMatrix a = SpdTridiagonal(4);
  std::vector<double> x;
  EXPECT_FALSE(ConjugateGradientSolver()
                   .Solve(a, {1, 2, 3, 4}, {1.0, 2.0}, &x)
                   .ok());
}

TEST(SummarizeCgBatchTest, AggregatesMinMaxTotalAndResidual) {
  std::vector<CgSummary> summaries(3);
  summaries[0] = {.iterations = 7, .relative_residual = 1e-9, .converged = true};
  summaries[1] = {.iterations = 3, .relative_residual = 5e-9, .converged = true};
  summaries[2] = {.iterations = 12, .relative_residual = 2e-3,
                  .converged = false};
  const CgBatchStats stats = SummarizeCgBatch(summaries);
  EXPECT_EQ(stats.num_systems, 3u);
  EXPECT_EQ(stats.num_converged, 2u);
  EXPECT_EQ(stats.min_iterations, 3u);
  EXPECT_EQ(stats.max_iterations, 12u);
  EXPECT_EQ(stats.total_iterations, 22u);
  EXPECT_DOUBLE_EQ(stats.max_relative_residual, 2e-3);
}

TEST(SummarizeCgBatchTest, EmptyBatchIsAllZero) {
  const CgBatchStats stats = SummarizeCgBatch({});
  EXPECT_EQ(stats.num_systems, 0u);
  EXPECT_EQ(stats.num_converged, 0u);
  EXPECT_EQ(stats.min_iterations, 0u);
  EXPECT_EQ(stats.max_iterations, 0u);
  EXPECT_EQ(stats.total_iterations, 0u);
}

TEST(SummarizeCgBatchTest, ZeroIterationFirstSummaryIsAValidMin) {
  // A zero-rhs system converges in 0 iterations; the min must track it even
  // though it is the first element.
  std::vector<CgSummary> summaries(2);
  summaries[0] = {.iterations = 0, .relative_residual = 0.0, .converged = true};
  summaries[1] = {.iterations = 5, .relative_residual = 1e-9, .converged = true};
  const CgBatchStats stats = SummarizeCgBatch(summaries);
  EXPECT_EQ(stats.min_iterations, 0u);
  EXPECT_EQ(stats.max_iterations, 5u);
  EXPECT_EQ(stats.total_iterations, 5u);
}

TEST(SummarizeCgBatchTest, SolveBlockBatchesAreRunToRunDeterministic) {
  // Two identical SolveBlock batches must report identical iteration stats
  // (each column's arithmetic is sequential, so iteration counts depend only
  // on the system/rhs/options tuple).
  RandomGraphOptions opts;
  opts.num_nodes = 80;
  opts.average_degree = 6.0;
  opts.seed = 4242;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = g.ToLaplacianCsr(1e-6 * std::max(g.Volume(), 1.0));
  DenseMatrix rhs(opts.num_nodes, 4);
  for (size_t j = 0; j < rhs.cols(); ++j) {
    rhs(j, j) = 1.0;
    rhs(opts.num_nodes - 1 - j, j) = -1.0;
  }
  CgOptions options;
  options.num_threads = 4;
  const ConjugateGradientSolver solver(options);

  DenseMatrix x1;
  DenseMatrix x2;
  Result<std::vector<CgSummary>> first = solver.SolveBlock(l, rhs, &x1);
  Result<std::vector<CgSummary>> second = solver.SolveBlock(l, rhs, &x2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const CgBatchStats stats1 = SummarizeCgBatch(*first);
  const CgBatchStats stats2 = SummarizeCgBatch(*second);
  EXPECT_EQ(stats1.num_systems, stats2.num_systems);
  EXPECT_EQ(stats1.num_converged, stats2.num_converged);
  EXPECT_EQ(stats1.min_iterations, stats2.min_iterations);
  EXPECT_EQ(stats1.max_iterations, stats2.max_iterations);
  EXPECT_EQ(stats1.total_iterations, stats2.total_iterations);
  EXPECT_EQ(stats1.max_relative_residual, stats2.max_relative_residual);
  EXPECT_GT(stats1.total_iterations, 0u);
}

}  // namespace
}  // namespace cad
