// Lockstep block-PCG contract tests: SolveBlock must reproduce a scalar PCG
// (tests/reference_cg.h) bit for bit on every column — solutions, residuals,
// and iteration counts — because its per-column floating-point operation
// sequence is identical. (Thread-stress variants live in
// test_parallel_stress.cc.)

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/random_graphs.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"
#include "reference_cg.h"

namespace cad {
namespace {

CsrMatrix LaplacianFixture(size_t n, uint64_t seed) {
  RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = 6.0;
  opts.seed = seed;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const Snapshot snapshot(g);
  return ToLaplacianCsr(snapshot, 1e-6 * std::max(snapshot.volume(), 1.0));
}

/// k mean-centered right-hand sides as an n x k block.
DenseMatrix RhsBlock(size_t n, size_t k, uint64_t seed) {
  DenseMatrix b(n, k);
  Rng rng(seed);
  for (size_t c = 0; c < k; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double v = rng.Normal();
      b(i, c) = v;
      mean += v;
    }
    mean /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) b(i, c) -= mean;
  }
  return b;
}

void ExpectBitIdentical(double expected, double actual, const char* what,
                        size_t i, size_t c) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(actual))
      << what << " differs at (" << i << ", " << c << "): " << expected
      << " vs " << actual;
}

void ExpectBlockMatchesReference(const CsrMatrix& a, const DenseMatrix& b,
                                 const CgOptions& options,
                                 const CgSolveContext& context = {}) {
  const ConjugateGradientSolver solver(options);
  DenseMatrix x_block;
  Result<std::vector<CgSummary>> block =
      solver.SolveBlock(a, b, &x_block, context);
  ASSERT_TRUE(block.ok()) << block.status().ToString();

  DenseMatrix x_reference;
  Result<std::vector<CgSummary>> reference =
      testing_reference::ReferencePcgColumns(a, b, options,
                                             context.cached_factor,
                                             context.initial_guess,
                                             &x_reference);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ASSERT_EQ(block->size(), reference->size());
  ASSERT_EQ(x_block.rows(), b.rows());
  ASSERT_EQ(x_block.cols(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    EXPECT_EQ((*block)[c].iterations, (*reference)[c].iterations)
        << "iteration count differs for system " << c;
    EXPECT_EQ((*block)[c].converged, (*reference)[c].converged);
    ExpectBitIdentical((*reference)[c].relative_residual,
                       (*block)[c].relative_residual, "residual", 0, c);
  }
  EXPECT_EQ(std::memcmp(x_block.data().data(), x_reference.data().data(),
                        x_block.data().size() * sizeof(double)),
            0)
      << "solution block differs from the reference";
}

class BlockSolverWidths : public ::testing::TestWithParam<size_t> {};

// k straddles the 16-column group cap and the SpMM kernel's 16-wide chunks;
// each width runs every preconditioner (IC(0) fresh and cached), cold and
// warm, at thread counts that split the columns into groups of every shape.
// Every third column has a zero rhs; under a warm start its guess is
// nonzero, and it must still come back exactly 0 (the reference's +0.0
// column, compared by memcmp) whichever group holds it.
TEST_P(BlockSolverWidths, BitIdenticalToSerialAcrossPreconditioners) {
  const size_t n = 120;
  const size_t k = GetParam();
  const CsrMatrix a = LaplacianFixture(n, 77);
  DenseMatrix b = RhsBlock(n, k, 123);
  // A warm guess near the solution: a loose solve of the same systems,
  // taken before the zero columns are cleared so their guesses are nonzero.
  CgOptions loose;
  loose.tolerance = 1e-2;
  DenseMatrix guess;
  ASSERT_TRUE(ConjugateGradientSolver(loose).SolveBlock(a, b, &guess).ok());
  for (size_t c = 1; c < k; c += 3) {
    for (size_t i = 0; i < n; ++i) b(i, c) = 0.0;
  }
  Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(factor.ok());

  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kNone, CgPreconditioner::kJacobi,
        CgPreconditioner::kIncompleteCholesky}) {
    const bool ic = preconditioner == CgPreconditioner::kIncompleteCholesky;
    for (const bool cached : {false, true}) {
      if (cached && !ic) continue;
      for (const bool warm : {false, true}) {
        for (const size_t threads : {1, 2, 3, 4, 7}) {
          SCOPED_TRACE(std::string(CgPreconditionerToString(preconditioner)) +
                       (cached ? " cached" : "") + (warm ? " warm" : " cold") +
                       " threads=" + std::to_string(threads));
          CgOptions options;
          options.preconditioner = preconditioner;
          options.num_threads = threads;
          CgSolveContext context;
          if (cached) context.cached_factor = &*factor;
          if (warm) context.initial_guess = &guess;
          ExpectBlockMatchesReference(a, b, options, context);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlockSolverWidths,
                         ::testing::Values(1, 2, 3, 8, 15, 16, 17, 31, 32, 33,
                                           50));

/// A width-k block whose columns converge at widely spread iterations, with
/// warm guesses. Column c gets kind (4c + 2) mod 9, so neighbouring slots
/// finish far apart and retirements swap columns out of every slot
/// position: kind 0 has a zero rhs (under a nonzero guess), kind 1 a guess
/// that already meets the default target, kind 2 a zero guess (the hard
/// columns), and kinds 3-8 guesses from loose solves at tolerances 1e-2
/// through 1e-7.
struct PackingFixture {
  DenseMatrix b;
  DenseMatrix guess;
};

PackingFixture MakePackingFixture(const CsrMatrix& a, size_t k) {
  const size_t n = a.rows();
  PackingFixture fixture{RhsBlock(n, k, 4001), DenseMatrix(n, k)};
  const DenseMatrix noise = RhsBlock(n, k, 4002);
  for (size_t c = 0; c < k; ++c) {
    const size_t kind = (4 * c + 2) % 9;
    if (kind == 2) continue;  // zero guess
    CgOptions loose;
    loose.tolerance = kind == 0   ? 1e-2
                      : kind == 1 ? 1e-11
                                  : std::pow(10.0, 1.0 - static_cast<double>(kind));
    std::vector<double> solution;
    const Result<CgSummary> solved = ConjugateGradientSolver(loose).Solve(
        a, testing_reference::Column(fixture.b, c), &solution);
    EXPECT_TRUE(solved.ok());
    for (size_t i = 0; i < n; ++i) {
      fixture.guess(i, c) = solution[i] + (kind == 0 ? noise(i, c) : 0.0);
    }
    if (kind == 0) {
      for (size_t i = 0; i < n; ++i) fixture.b(i, c) = 0.0;
    }
  }
  return fixture;
}

class BlockSolverPacking : public ::testing::TestWithParam<size_t> {};

// Every column memcmp-equal to the scalar reference while converged columns
// leave the packed sweep from every slot position, under each
// preconditioner at 1 and 4 threads.
TEST_P(BlockSolverPacking, RetiredColumnsMatchReferenceFromEverySlot) {
  const size_t k = GetParam();
  const CsrMatrix a = LaplacianFixture(150, 4000);
  const PackingFixture fixture = MakePackingFixture(a, k);
  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kNone, CgPreconditioner::kJacobi,
        CgPreconditioner::kIncompleteCholesky}) {
    for (const size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(CgPreconditionerToString(preconditioner)) +
                   " threads=" + std::to_string(threads));
      CgOptions options;
      options.preconditioner = preconditioner;
      options.num_threads = threads;
      CgSolveContext context;
      context.initial_guess = &fixture.guess;
      ExpectBlockMatchesReference(a, fixture.b, options, context);
    }
  }
}

// An iteration cap between the columns' convergence points: some columns
// retire before it and the rest stop unconverged in their packed slots;
// both kinds must still land in their own columns, bit for bit.
TEST_P(BlockSolverPacking, IterationCapWithRetiredColumnsMatchesReference) {
  const size_t k = GetParam();
  const CsrMatrix a = LaplacianFixture(150, 4000);
  const PackingFixture fixture = MakePackingFixture(a, k);
  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kNone, CgPreconditioner::kJacobi,
        CgPreconditioner::kIncompleteCholesky}) {
    CgOptions options;
    options.preconditioner = preconditioner;
    DenseMatrix uncapped;
    Result<std::vector<CgSummary>> full =
        testing_reference::ReferencePcgColumns(a, fixture.b, options, nullptr,
                                               &fixture.guess, &uncapped);
    ASSERT_TRUE(full.ok());
    size_t most = 0;
    for (const CgSummary& summary : *full) {
      most = std::max(most, summary.iterations);
    }
    ASSERT_GT(most, 2u);
    options.max_iterations = most / 2;
    for (const size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(CgPreconditionerToString(preconditioner)) +
                   " threads=" + std::to_string(threads));
      options.num_threads = threads;
      CgSolveContext context;
      context.initial_guess = &fixture.guess;
      ExpectBlockMatchesReference(a, fixture.b, options, context);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlockSolverPacking,
                         ::testing::Range<size_t>(1, 18));

// The packing fixture really spreads: across 17 columns it holds zero
// right-hand sides, guesses that need no iteration, unconverged columns
// under the cap, and many distinct iteration counts.
TEST(BlockSolverTest, PackingFixtureSpreadsConvergence) {
  const CsrMatrix a = LaplacianFixture(150, 4000);
  const PackingFixture fixture = MakePackingFixture(a, 17);
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries =
      testing_reference::ReferencePcgColumns(a, fixture.b, CgOptions(),
                                             nullptr, &fixture.guess, &x);
  ASSERT_TRUE(summaries.ok());
  std::vector<size_t> iterations;
  size_t zero_rhs = 0;
  size_t met_by_guess = 0;
  for (size_t c = 0; c < 17; ++c) {
    const CgSummary& summary = (*summaries)[c];
    EXPECT_TRUE(summary.converged);
    iterations.push_back(summary.iterations);
    if (summary.iterations == 0 && summary.relative_residual == 0.0) {
      ++zero_rhs;
    } else if (summary.iterations == 0) {
      ++met_by_guess;
    }
  }
  EXPECT_EQ(zero_rhs, 2u);
  EXPECT_EQ(met_by_guess, 2u);
  std::sort(iterations.begin(), iterations.end());
  iterations.erase(std::unique(iterations.begin(), iterations.end()),
                   iterations.end());
  // Distinct counts from 0 up, the longest many times the shortest
  // nonzero one.
  ASSERT_GE(iterations.size(), 6u);
  EXPECT_EQ(iterations.front(), 0u);
  EXPECT_GE(iterations.back(), 5 * iterations[1]);
}

TEST(BlockSolverTest, ZeroColumnConvergesInZeroIterationsAndStaysZero) {
  const CsrMatrix a = LaplacianFixture(40, 5);
  DenseMatrix b = RhsBlock(40, 3, 9);
  for (size_t i = 0; i < 40; ++i) b(i, 1) = 0.0;
  const ConjugateGradientSolver solver;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries = solver.SolveBlock(a, b, &x);
  ASSERT_TRUE(summaries.ok());
  EXPECT_EQ((*summaries)[1].iterations, 0u);
  EXPECT_TRUE((*summaries)[1].converged);
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(x(i, 1), 0.0);
  EXPECT_GT((*summaries)[0].iterations, 0u);
  EXPECT_GT((*summaries)[2].iterations, 0u);
}

TEST(BlockSolverTest, InitialGuessBlockMatchesSerialWarmSolves) {
  const CsrMatrix a = LaplacianFixture(90, 31);
  const DenseMatrix b = RhsBlock(90, 4, 32);
  // A deliberately mediocre guess: the rhs itself, scaled.
  DenseMatrix guess(90, 4);
  for (size_t i = 0; i < 90; ++i) {
    for (size_t c = 0; c < 4; ++c) guess(i, c) = 0.1 * b(i, c);
  }
  CgSolveContext context;
  context.initial_guess = &guess;
  CgOptions options;
  ExpectBlockMatchesReference(a, b, options, context);
}

TEST(BlockSolverTest, ExactGuessBlockConvergesInZeroIterations) {
  const CsrMatrix a = LaplacianFixture(60, 41);
  // Manufacture solutions first, then the rhs block B = A X.
  const DenseMatrix x_true = RhsBlock(60, 3, 42);
  DenseMatrix b;
  a.MultiplyBlock(x_true, &b);
  CgSolveContext context;
  context.initial_guess = &x_true;
  const ConjugateGradientSolver solver;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries =
      solver.SolveBlock(a, b, &x, context);
  ASSERT_TRUE(summaries.ok());
  for (const CgSummary& summary : *summaries) {
    EXPECT_TRUE(summary.converged);
    EXPECT_EQ(summary.iterations, 0u);
  }
}

TEST(BlockSolverTest, CachedFactorMatchesFreshFactorBitwise) {
  const CsrMatrix a = LaplacianFixture(80, 51);
  const DenseMatrix b = RhsBlock(80, 4, 52);
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  const ConjugateGradientSolver solver(options);

  DenseMatrix x_fresh;
  Result<std::vector<CgSummary>> fresh = solver.SolveBlock(a, b, &x_fresh);
  ASSERT_TRUE(fresh.ok());

  Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(factor.ok());
  CgSolveContext context;
  context.cached_factor = &*factor;
  DenseMatrix x_cached;
  Result<std::vector<CgSummary>> cached =
      solver.SolveBlock(a, b, &x_cached, context);
  ASSERT_TRUE(cached.ok());

  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ((*fresh)[c].iterations, (*cached)[c].iterations);
    for (size_t i = 0; i < 80; ++i) {
      ExpectBitIdentical(x_fresh(i, c), x_cached(i, c), "solution", i, c);
    }
  }
}

TEST(BlockSolverTest, IndefiniteMatrixReportsBreakdown) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 1.0);
  coo.AddSymmetric(0, 1, 2.0);
  DenseMatrix b(2, 2);
  b(0, 0) = 1.0;
  b(1, 0) = -3.0;
  b(0, 1) = 2.0;
  b(1, 1) = 1.0;
  CgOptions options;
  options.preconditioner = CgPreconditioner::kNone;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries =
      ConjugateGradientSolver(options).SolveBlock(coo.ToCsr(), b, &x);
  EXPECT_FALSE(summaries.ok());
  EXPECT_EQ(summaries.status().code(), StatusCode::kNumericalError);
}

TEST(BlockSolverTest, RejectsMismatchedGuessShape) {
  const CsrMatrix a = LaplacianFixture(30, 61);
  const DenseMatrix b = RhsBlock(30, 2, 62);
  DenseMatrix guess(30, 3);  // wrong column count
  CgSolveContext context;
  context.initial_guess = &guess;
  DenseMatrix x;
  EXPECT_FALSE(
      ConjugateGradientSolver().SolveBlock(a, b, &x, context).ok());
}

TEST(SpMMKernelTest, MultiplyBlockMatchesPerColumnSpMV) {
  const CsrMatrix a = LaplacianFixture(100, 81);
  const DenseMatrix x = RhsBlock(100, 7, 82);
  DenseMatrix y;
  a.MultiplyBlock(x, &y);
  for (size_t c = 0; c < 7; ++c) {
    std::vector<double> column(100);
    for (size_t i = 0; i < 100; ++i) column[i] = x(i, c);
    const std::vector<double> expected = a.Multiply(column);
    for (size_t i = 0; i < 100; ++i) {
      ExpectBitIdentical(expected[i], y(i, c), "SpMM", i, c);
    }
  }
}

TEST(SpMMKernelTest, MultiplyAccumulateBlockMatchesPerColumnAccumulate) {
  const CsrMatrix a = LaplacianFixture(64, 91);
  const DenseMatrix x = RhsBlock(64, 5, 92);
  DenseMatrix y = RhsBlock(64, 5, 93);
  DenseMatrix y_block = y;
  a.MultiplyAccumulateBlock(-1.0, x, &y_block);
  for (size_t c = 0; c < 5; ++c) {
    std::vector<double> x_col(64);
    std::vector<double> y_col(64);
    for (size_t i = 0; i < 64; ++i) {
      x_col[i] = x(i, c);
      y_col[i] = y(i, c);
    }
    a.MultiplyAccumulate(-1.0, x_col, &y_col);
    for (size_t i = 0; i < 64; ++i) {
      ExpectBitIdentical(y_col[i], y_block(i, c), "SpMM accumulate", i, c);
    }
  }
}

/// Column c of `m` as a vector.
std::vector<double> ColumnOf(const DenseMatrix& m, size_t c) {
  std::vector<double> column(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) column[i] = m(i, c);
  return column;
}

/// memcmp of column c of `block` against `expected`.
void ExpectColumnBytes(const std::vector<double>& expected,
                       const DenseMatrix& block, size_t c, const char* what) {
  const std::vector<double> actual = ColumnOf(block, c);
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size() * sizeof(double)),
            0)
      << what << " column " << c << " of " << block.cols();
}

class SpMMKernelWidths : public ::testing::TestWithParam<size_t> {};

// Widths past 16 run the 16-wide register chunks at column offsets plus a
// narrow tail; every column must equal a per-column Multiply byte for byte
// in all three block forms (the overwrite form against a zero-filled
// accumulate), and so must a column range read in place.
TEST_P(SpMMKernelWidths, BlockFormsMatchPerColumnMultiply) {
  const size_t n = 100;
  const size_t k = GetParam();
  const CsrMatrix a = LaplacianFixture(n, 81);
  const DenseMatrix x = RhsBlock(n, k, 82);
  const DenseMatrix y0 = RhsBlock(n, k, 83);
  DenseMatrix product;
  a.MultiplyBlock(x, &product);
  DenseMatrix accumulated = y0;
  a.MultiplyAccumulateBlock(-1.0, x, &accumulated);
  DenseMatrix overwritten = y0;
  a.MultiplyOverwriteBlock(-1.0, x, &overwritten);
  // Columns [begin, k) read in place from X.
  const size_t begin = k / 3;
  DenseMatrix range(n, k - begin);
  a.MultiplyAccumulateColumns(-1.0, x, begin, &range);
  for (size_t c = 0; c < k; ++c) {
    const std::vector<double> column = ColumnOf(x, c);
    ExpectColumnBytes(a.Multiply(column), product, c, "MultiplyBlock");
    std::vector<double> y_column = ColumnOf(y0, c);
    a.MultiplyAccumulate(-1.0, column, &y_column);
    ExpectColumnBytes(y_column, accumulated, c, "MultiplyAccumulateBlock");
    std::vector<double> zero_column(n, 0.0);
    a.MultiplyAccumulate(-1.0, column, &zero_column);
    ExpectColumnBytes(zero_column, overwritten, c, "MultiplyOverwriteBlock");
    if (c >= begin) {
      ExpectColumnBytes(zero_column, range, c - begin,
                        "MultiplyAccumulateColumns");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SpMMKernelWidths,
                         ::testing::Values(1, 7, 16, 17, 31, 32, 33, 50, 64));

TEST(SpMMKernelTest, BlockedIcApplyMatchesPerColumnApply) {
  const CsrMatrix a = LaplacianFixture(96, 95);
  Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(factor.ok());
  const DenseMatrix b = RhsBlock(96, 6, 96);
  DenseMatrix x;
  factor->ApplyBlock(b, &x);
  for (size_t c = 0; c < 6; ++c) {
    std::vector<double> column(96);
    for (size_t i = 0; i < 96; ++i) column[i] = b(i, c);
    const std::vector<double> expected = factor->Apply(column);
    for (size_t i = 0; i < 96; ++i) {
      ExpectBitIdentical(expected[i], x(i, c), "IC apply", i, c);
    }
  }
}

}  // namespace
}  // namespace cad
