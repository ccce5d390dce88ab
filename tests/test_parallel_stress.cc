// Concurrency stress tests aimed at the ThreadSanitizer build
// (-DCAD_SANITIZE=thread): they hammer ParallelFor with contended atomic
// counters and drive the CgOptions::num_threads > 1 solve path, verifying
// bit-identical results across thread counts. In uninstrumented builds they
// double as determinism regression tests.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "graph/graph.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/sparse_matrix.h"
#include "obs/obs.h"
#include "reference_cg.h"

namespace cad {
namespace {

TEST(ParallelForStressTest, ContendedCounterSumsExactly) {
  constexpr size_t kCount = 100000;
  std::atomic<uint64_t> sum{0};
  ParallelFor(kCount, 8, [&sum](size_t i) {
    sum.fetch_add(i + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), uint64_t{kCount} * (kCount + 1) / 2);
}

TEST(ParallelForStressTest, DisjointIndexWritesCoverEveryElement) {
  constexpr size_t kCount = 50000;
  std::vector<double> out(kCount, 0.0);
  ParallelFor(kCount, 8, [&out](size_t i) {
    out[i] = static_cast<double>(i) * 0.5 + 1.0;
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i) * 0.5 + 1.0) << "index " << i;
  }
}

TEST(ParallelForStressTest, RepeatedLaunchesWithSharedCounter) {
  // Many short-lived pools stress thread creation/join and the work-stealing
  // counter far more than one long loop does.
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(64, 4, [&total](size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), uint64_t{200} * (63 * 64 / 2));
}

/// A deterministic, connected, irregular test graph: ring plus skip chords
/// with varied weights.
WeightedGraph MakeStressGraph(size_t n) {
  WeightedGraph graph(n);
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    const NodeId v = static_cast<NodeId>((i + 1) % n);
    CAD_CHECK_OK(graph.SetEdge(u, v, 1.0 + 0.25 * static_cast<double>(i % 7)));
  }
  for (size_t i = 0; i < n; i += 3) {
    const NodeId u = static_cast<NodeId>(i);
    const NodeId v = static_cast<NodeId>((i * i + 5) % n);
    if (u == v || graph.HasEdge(u, v)) continue;
    CAD_CHECK_OK(graph.SetEdge(u, v, 0.5 + 0.1 * static_cast<double>(i % 5)));
  }
  return graph;
}

DenseMatrix MakeRightHandSides(size_t n, size_t k) {
  DenseMatrix rhs(n, k);
  for (size_t j = 0; j < k; ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      rhs(i, j) = static_cast<double>((i * (j + 3) + 11 * j) % 17) - 8.0;
      mean += rhs(i, j);
    }
    // Keep the rhs near range(L) so regularized solves stay well-behaved.
    mean /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) rhs(i, j) -= mean;
  }
  return rhs;
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(a(i, j)), std::bit_cast<uint64_t>(b(i, j)))
          << "system " << j << ", component " << i << ": " << a(i, j)
          << " vs " << b(i, j);
    }
  }
}

class SolveBlockThreadStressTest
    : public ::testing::TestWithParam<CgPreconditioner> {};

TEST_P(SolveBlockThreadStressTest, BitIdenticalAcrossThreadCounts) {
  constexpr size_t kNodes = 120;
  constexpr size_t kSystems = 12;
  const WeightedGraph graph = MakeStressGraph(kNodes);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-3);
  const DenseMatrix rhs = MakeRightHandSides(kNodes, kSystems);

  CgOptions options;
  options.preconditioner = GetParam();
  options.tolerance = 1e-10;

  std::vector<DenseMatrix> solutions;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    options.num_threads = threads;
    const ConjugateGradientSolver solver(options);
    DenseMatrix x;
    Result<std::vector<CgSummary>> summaries =
        solver.SolveBlock(laplacian, rhs, &x);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    for (const CgSummary& summary : *summaries) {
      EXPECT_TRUE(summary.converged)
          << "relative residual " << summary.relative_residual;
    }
    solutions.push_back(std::move(x));
  }
  // Chunking the k columns across threads only regroups which columns share
  // a sweep, so the thread count must not perturb a single bit.
  ExpectBitIdentical(solutions[0], solutions[1]);
  ExpectBitIdentical(solutions[0], solutions[2]);
}

INSTANTIATE_TEST_SUITE_P(AllPreconditioners, SolveBlockThreadStressTest,
                         ::testing::Values(
                             CgPreconditioner::kNone, CgPreconditioner::kJacobi,
                             CgPreconditioner::kIncompleteCholesky),
                         [](const auto& info) {
                           return std::string(
                               CgPreconditionerToString(info.param));
                         });

TEST_P(SolveBlockThreadStressTest, BitIdenticalWithObservabilityOn) {
  // Same contract as above, but with metrics and tracing recording: the
  // instrumentation only observes, so it must not perturb a single solution
  // bit nor change any deterministic (non-timer) metric across thread
  // counts. Under TSan this also races the metric atomics and the
  // per-thread trace buffers against the solver threads.
  constexpr size_t kNodes = 96;
  constexpr size_t kSystems = 10;
  const WeightedGraph graph = MakeStressGraph(kNodes);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-3);
  const DenseMatrix rhs = MakeRightHandSides(kNodes, kSystems);

  CgOptions options;
  options.preconditioner = GetParam();
  options.tolerance = 1e-10;

  std::vector<DenseMatrix> solutions;
  std::vector<uint64_t> iteration_counters;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    const obs::ScopedMetricsEnable metrics_enable;
    const obs::ScopedTracingEnable tracing_enable;
    options.num_threads = threads;
    const ConjugateGradientSolver solver(options);
    DenseMatrix x;
    Result<std::vector<CgSummary>> summaries =
        solver.SolveBlock(laplacian, rhs, &x);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    solutions.push_back(std::move(x));

#ifndef CAD_OBS_DISABLED
    uint64_t iterations = 0;
    bool found = false;
    for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
      if (name == "pcg.iterations") {
        iterations = value;
        found = true;
      }
    }
    ASSERT_TRUE(found);
    iteration_counters.push_back(iterations);
#else
    iteration_counters.push_back(0);  // hard-off build: macros compile away
#endif
  }
  ExpectBitIdentical(solutions[0], solutions[1]);
  ExpectBitIdentical(solutions[0], solutions[2]);
  // Counter sums commute, so the iteration total is thread-count-invariant.
  EXPECT_EQ(iteration_counters[0], iteration_counters[1]);
  EXPECT_EQ(iteration_counters[0], iteration_counters[2]);
}

TEST_P(SolveBlockThreadStressTest, WarmGuessMatchesReferenceAcrossThreadCounts) {
  // With an initial-guess block, every thread count (and so every column
  // chunking) must match the scalar reference PCG bit for bit: solutions,
  // residuals and iteration counts.
  constexpr size_t kNodes = 120;
  constexpr size_t kSystems = 12;
  const WeightedGraph graph = MakeStressGraph(kNodes);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-3);
  const DenseMatrix rhs = MakeRightHandSides(kNodes, kSystems);
  DenseMatrix guess = rhs;
  for (double& v : guess.mutable_data()) v *= 0.01;

  CgOptions options;
  options.preconditioner = GetParam();
  options.tolerance = 1e-10;

  DenseMatrix reference;
  Result<std::vector<CgSummary>> reference_summaries =
      testing_reference::ReferencePcgColumns(laplacian, rhs, options, nullptr,
                                             &guess, &reference);
  ASSERT_TRUE(reference_summaries.ok()) << reference_summaries.status();

  CgSolveContext context;
  context.initial_guess = &guess;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    options.num_threads = threads;
    const ConjugateGradientSolver solver(options);
    DenseMatrix x;
    Result<std::vector<CgSummary>> summaries =
        solver.SolveBlock(laplacian, rhs, &x, context);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    ExpectBitIdentical(reference, x);
    ASSERT_EQ(summaries->size(), reference_summaries->size());
    for (size_t j = 0; j < summaries->size(); ++j) {
      EXPECT_EQ((*summaries)[j].iterations, (*reference_summaries)[j].iterations)
          << "system " << j << " at " << threads << " threads";
      EXPECT_EQ(std::bit_cast<uint64_t>((*summaries)[j].relative_residual),
                std::bit_cast<uint64_t>(
                    (*reference_summaries)[j].relative_residual));
    }
  }
}

TEST(SolveBlockThreadStressTest, RepeatedContendedSolves) {
  // Repeatedly launch the threaded solve path so TSan sees many
  // pool lifetimes against the shared read-only preconditioner.
  constexpr size_t kNodes = 48;
  const WeightedGraph graph = MakeStressGraph(kNodes);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-3);
  const DenseMatrix rhs = MakeRightHandSides(kNodes, 8);

  CgOptions options;
  options.num_threads = 8;
  const ConjugateGradientSolver solver(options);
  DenseMatrix first;
  ASSERT_TRUE(solver.SolveBlock(laplacian, rhs, &first).ok());
  for (int round = 0; round < 10; ++round) {
    DenseMatrix x;
    Result<std::vector<CgSummary>> summaries =
        solver.SolveBlock(laplacian, rhs, &x);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    ExpectBitIdentical(first, x);
  }
}

}  // namespace
}  // namespace cad
