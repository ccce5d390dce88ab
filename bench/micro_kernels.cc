// google-benchmark micro-benchmarks for the computational kernels under CAD:
// CSR matvec, SpMM block kernels, PCG Laplacian solves (one right-hand side
// and a lockstep block), approximate commute embedding builds, exact pseudoinverse builds,
// transition scoring, power iteration, Lanczos Fiedler pairs,
// incomplete-Cholesky factorization, and sampled closeness.
//
// Beyond the usual google-benchmark flags, `--check_spmm` runs the kernel
// equivalence checks instead of timing: MultiplyBlock against k per-column
// SpMVs and IncompleteCholesky::ApplyBlock against k per-column applies, and
// the lockstep CG's leading-column forms (MultiplyOverwriteLeading,
// ApplyLeadingColumns) at widths 1-16 inside a wider row stride, all to
// 0 ULP, with the columns past the width left untouched. CI's perf-smoke job
// gates on it.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "core/edge_scores.h"
#include "datagen/random_graphs.h"
#include "datagen/rmat.h"
#include "graph/centrality.h"
#include "graph/snapshot.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/lanczos.h"
#include "linalg/power_iteration.h"

namespace cad {
namespace {

WeightedGraph BenchGraph(size_t n, double degree = 8.0) {
  RandomGraphOptions options;
  options.num_nodes = n;
  options.average_degree = degree;
  options.seed = 12345 + n;
  return MakeRandomSparseGraph(options);
}

void BM_CsrMatvec(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const CsrMatrix a = ToAdjacencyCsr(BenchGraph(n));
  std::vector<double> x(n, 1.0);
  std::vector<double> y(n);
  for (auto _ : state) {
    y.assign(n, 0.0);
    a.MultiplyAccumulate(1.0, x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()));
}
BENCHMARK(BM_CsrMatvec)->Arg(1000)->Arg(10000)->Arg(100000);

/// A deterministic n x k block with mildly varied entries.
DenseMatrix BenchBlock(size_t n, size_t k) {
  DenseMatrix x(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) {
      x(i, c) = 1.0 + 0.125 * static_cast<double>((i * (c + 3)) % 7);
    }
  }
  return x;
}

void BM_CsrSpMVxK(benchmark::State& state) {
  // Baseline for BM_CsrSpMMBlock: the same work as k independent SpMVs,
  // sweeping the matrix k times.
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const CsrMatrix a = ToAdjacencyCsr(BenchGraph(n));
  const DenseMatrix x = BenchBlock(n, k);
  std::vector<double> x_col(n);
  std::vector<double> y(n);
  for (auto _ : state) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < n; ++i) x_col[i] = x(i, c);
      y.assign(n, 0.0);
      a.MultiplyAccumulate(1.0, x_col, &y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz() * k));
}
BENCHMARK(BM_CsrSpMVxK)
    ->Args({10000, 8})
    ->Args({10000, 32})
    ->Args({100000, 8})
    ->Args({100000, 32});

void BM_CsrSpMMBlock(benchmark::State& state) {
  // One CSR sweep feeding all k columns: same flops as BM_CsrSpMVxK but the
  // matrix (indices + values) is read once instead of k times.
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const CsrMatrix a = ToAdjacencyCsr(BenchGraph(n));
  const DenseMatrix x = BenchBlock(n, k);
  DenseMatrix y;
  for (auto _ : state) {
    a.MultiplyBlock(x, &y);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz() * k));
}
BENCHMARK(BM_CsrSpMMBlock)
    ->Args({10000, 8})
    ->Args({10000, 32})
    ->Args({100000, 8})
    ->Args({100000, 32});

/// A power-law R-MAT graph: the degree distribution of the scale harness,
/// where the SpMM gathers are irregular (BenchGraph's ER graphs have no
/// hubs).
WeightedGraph BenchRmatGraph(size_t n, size_t edge_factor = 8) {
  RmatOptions options;
  options.num_nodes = n;
  options.num_edges = n * edge_factor;
  options.seed = 777 + n;
  auto graph = MakeRmatGraph(options);
  CAD_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).ValueOrDie();
}

void BM_LaplacianSpMM(benchmark::State& state) {
  // The CG hot sweep on a power-law Laplacian.
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const WeightedGraph g = BenchRmatGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
  const DenseMatrix x = BenchBlock(n, k);
  DenseMatrix y(n, k);
  for (auto _ : state) {
    l.MultiplyOverwriteBlock(1.0, x, &y);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(l.nnz() * k));
}
BENCHMARK(BM_LaplacianSpMM)
    ->Args({100000, 8})
    ->Args({100000, 32})
    ->Args({100000, 50})
    ->Args({1000000, 16});

void BM_IcApplyxK(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const WeightedGraph g = BenchGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
  auto ic = IncompleteCholesky::Factor(l);
  CAD_CHECK(ic.ok());
  const DenseMatrix b = BenchBlock(n, k);
  std::vector<double> b_col(n);
  for (auto _ : state) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < n; ++i) b_col[i] = b(i, c);
      const std::vector<double> x = ic->Apply(b_col);
      benchmark::DoNotOptimize(x.data());
    }
  }
}
BENCHMARK(BM_IcApplyxK)->Args({10000, 8})->Args({10000, 32});

void BM_IcApplyBlock(benchmark::State& state) {
  // Blocked triangular solves: both factors are swept once per application
  // instead of once per column.
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const WeightedGraph g = BenchGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
  auto ic = IncompleteCholesky::Factor(l);
  CAD_CHECK(ic.ok());
  const DenseMatrix b = BenchBlock(n, k);
  DenseMatrix x;
  for (auto _ : state) {
    ic->ApplyBlock(b, &x);
    benchmark::DoNotOptimize(x.data().data());
  }
}
BENCHMARK(BM_IcApplyBlock)->Args({10000, 8})->Args({10000, 32});

void BM_LaplacianPcgSolve(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WeightedGraph g = BenchGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-8 * Snapshot(g).volume());
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;
  const ConjugateGradientSolver solver;
  std::vector<double> x;
  for (auto _ : state) {
    auto summary = solver.Solve(l, b, &x);
    CAD_CHECK(summary.ok());
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LaplacianPcgSolve)->Arg(1000)->Arg(10000)->Arg(100000);

/// An n x k block of mean-centered Laplacian right-hand sides (near
/// range(L)).
DenseMatrix BenchRhs(size_t n, size_t k) {
  DenseMatrix rhs(n, k);
  for (size_t c = 0; c < k; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      rhs(i, c) = static_cast<double>((i * (c + 3) + 11 * c) % 17) - 8.0;
      mean += rhs(i, c);
    }
    mean /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) rhs(i, c) -= mean;
  }
  return rhs;
}

void BM_PcgSolveBlock(benchmark::State& state) {
  // k Laplacian systems advanced in lockstep, sharing each SpMM sweep, on
  // an ER graph (third argument 0) or a power-law R-MAT graph (1). The
  // 8k-node R-MAT rows at k = 10 and k = 50 are the solve shapes of
  // cadbench's batch_rmat and stream_churn workloads.
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  const WeightedGraph g =
      state.range(2) != 0 ? BenchRmatGraph(n) : BenchGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-8 * Snapshot(g).volume());
  const DenseMatrix rhs = BenchRhs(n, k);
  const ConjugateGradientSolver solver;
  DenseMatrix x;
  for (auto _ : state) {
    auto summaries = solver.SolveBlock(l, rhs, &x);
    CAD_CHECK(summaries.ok());
    benchmark::DoNotOptimize(x.data().data());
  }
}
BENCHMARK(BM_PcgSolveBlock)
    ->Args({10000, 16, 0})
    ->Args({100000, 16, 0})
    ->Args({8000, 10, 1})
    ->Args({8000, 50, 1});

void BM_ApproxEmbeddingBuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WeightedGraph g = BenchGraph(n);
  ApproxCommuteOptions options;
  options.embedding_dim = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto oracle = ApproxCommuteEmbedding::Build(g, options);
    CAD_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->embedding().data().data());
  }
}
BENCHMARK(BM_ApproxEmbeddingBuild)
    ->Args({1000, 10})
    ->Args({1000, 50})
    ->Args({10000, 10})
    ->Args({10000, 50});

void BM_ExactCommuteBuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WeightedGraph g = BenchGraph(n);
  for (auto _ : state) {
    auto oracle = ExactCommuteTime::Build(g);
    CAD_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->laplacian_pseudoinverse().data().data());
  }
}
BENCHMARK(BM_ExactCommuteBuild)->Arg(100)->Arg(200)->Arg(400);

void BM_TransitionScoring(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  RandomGraphOptions options;
  options.num_nodes = n;
  options.average_degree = 8.0;
  options.seed = 999;
  const TemporalGraphSequence seq = MakeRandomTransition(options, 0.1, 0.02);
  ApproxCommuteOptions approx;
  approx.embedding_dim = 25;
  auto before = ApproxCommuteEmbedding::Build(seq.Snapshot(0), approx);
  auto after = ApproxCommuteEmbedding::Build(seq.Snapshot(1), approx);
  CAD_CHECK(before.ok());
  CAD_CHECK(after.ok());
  for (auto _ : state) {
    const TransitionScores scores =
        ComputeTransitionScores(seq.Snapshot(0), seq.Snapshot(1), *before,
                                *after, EdgeScoreKind::kCad);
    benchmark::DoNotOptimize(scores.total_score);
  }
}
BENCHMARK(BM_TransitionScoring)->Arg(1000)->Arg(10000);

void BM_PowerIteration(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const CsrMatrix a = ToAdjacencyCsr(BenchGraph(n));
  for (auto _ : state) {
    auto result = PrincipalEigenvector(a);
    CAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->eigenvalue);
  }
}
BENCHMARK(BM_PowerIteration)->Arg(1000)->Arg(10000);

void BM_LanczosFiedler(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const CsrMatrix l = ToLaplacianCsr(BenchGraph(n));
  LanczosOptions options;
  options.num_eigenpairs = 3;
  for (auto _ : state) {
    auto result = SmallestEigenpairs(l, options);
    CAD_CHECK(result.ok());
    benchmark::DoNotOptimize(result->eigenvalues.data());
  }
}
BENCHMARK(BM_LanczosFiedler)->Arg(1000)->Arg(10000);

void BM_IncompleteCholeskyFactor(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WeightedGraph g = BenchGraph(n);
  const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
  for (auto _ : state) {
    auto ic = IncompleteCholesky::Factor(l);
    CAD_CHECK(ic.ok());
    benchmark::DoNotOptimize(ic->lower().values().data());
  }
}
BENCHMARK(BM_IncompleteCholeskyFactor)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SampledCloseness(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WeightedGraph g = BenchGraph(n);
  ClosenessOptions options;
  options.num_samples = 32;
  for (auto _ : state) {
    const std::vector<double> centrality = ClosenessCentrality(g, options);
    benchmark::DoNotOptimize(centrality.data());
  }
}
BENCHMARK(BM_SampledCloseness)->Arg(1000)->Arg(10000);

/// --check_spmm: verify the block kernels reproduce the per-column kernels
/// to 0 ULP. Returns the number of mismatched values.
size_t RunSpmmCheck() {
  size_t mismatches = 0;
  const auto expect_identical = [&mismatches](double expected, double actual,
                                              const char* what, size_t i,
                                              size_t c) {
    if (std::bit_cast<uint64_t>(expected) != std::bit_cast<uint64_t>(actual)) {
      std::fprintf(stderr, "%s mismatch at (%zu, %zu): %.17g vs %.17g\n", what,
                   i, c, expected, actual);
      ++mismatches;
    }
  };

  for (const size_t n : {size_t{500}, size_t{4000}}) {
    // Past 16 columns the SpMM runs 16-wide chunks plus a narrow tail.
    for (const size_t k : {size_t{1}, size_t{5}, size_t{16}, size_t{17},
                           size_t{33}, size_t{50}}) {
      const WeightedGraph g = BenchGraph(n);
      const CsrMatrix a = ToAdjacencyCsr(g);
      const DenseMatrix x = BenchBlock(n, k);
      DenseMatrix y;
      a.MultiplyBlock(x, &y);
      std::vector<double> x_col(n);
      for (size_t c = 0; c < k; ++c) {
        for (size_t i = 0; i < n; ++i) x_col[i] = x(i, c);
        const std::vector<double> expected = a.Multiply(x_col);
        for (size_t i = 0; i < n; ++i) {
          expect_identical(expected[i], y(i, c), "SpMM", i, c);
        }
      }

      const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
      auto ic = IncompleteCholesky::Factor(l);
      CAD_CHECK(ic.ok());
      DenseMatrix z;
      ic->ApplyBlock(x, &z);
      for (size_t c = 0; c < k; ++c) {
        for (size_t i = 0; i < n; ++i) x_col[i] = x(i, c);
        const std::vector<double> expected = ic->Apply(x_col);
        for (size_t i = 0; i < n; ++i) {
          expect_identical(expected[i], z(i, c), "IC apply", i, c);
        }
      }

      std::printf("check_spmm n=%zu k=%zu: OK\n", n, k);
    }

    // The lockstep CG's sweeps over the leading `width` columns of wider
    // blocks: the SpMM and the IC(0) apply, read and written through a row
    // stride past the width.
    const WeightedGraph g = BenchGraph(n);
    const CsrMatrix l = ToLaplacianCsr(g, 1e-6 * Snapshot(g).volume());
    auto ic = IncompleteCholesky::Factor(l);
    CAD_CHECK(ic.ok());
    constexpr size_t kStride = 19;
    const DenseMatrix x = BenchBlock(n, kStride);
    std::vector<double> x_col(n);
    for (size_t width = 1; width <= 16; ++width) {
      DenseMatrix y(n, kStride);
      l.MultiplyOverwriteLeading(1.0, x, width, &y);
      DenseMatrix z(n, kStride);
      ic->ApplyLeadingColumns(x, width, &z);
      for (size_t c = 0; c < kStride; ++c) {
        for (size_t i = 0; i < n; ++i) x_col[i] = x(i, c);
        const std::vector<double> spmv =
            c < width ? l.Multiply(x_col) : std::vector<double>(n, 0.0);
        const std::vector<double> apply =
            c < width ? ic->Apply(x_col) : std::vector<double>(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
          expect_identical(spmv[i], y(i, c), "leading SpMM", i, c);
          expect_identical(apply[i], z(i, c), "leading IC apply", i, c);
        }
      }
    }
    std::printf("check_spmm n=%zu leading widths 1-16, stride %zu: OK\n", n,
                kStride);
  }
  return mismatches;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check_spmm") == 0) {
      const size_t mismatches = cad::RunSpmmCheck();
      if (mismatches != 0) {
        std::fprintf(stderr, "check_spmm FAILED: %zu mismatched values\n",
                     mismatches);
        return 1;
      }
      std::printf("check_spmm PASSED: block kernels match per-column kernels "
                  "to 0 ULP\n");
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
