#include "commute/approx_commute.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.h"
#include "commute/exact_commute.h"
#include "commute/solver_cache.h"
#include "datagen/random_graphs.h"
#include "graph/snapshot.h"

namespace cad {
namespace {

TEST(ApproxCommuteTest, RejectsZeroDimension) {
  WeightedGraph g(2);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ApproxCommuteOptions options;
  options.embedding_dim = 0;
  EXPECT_FALSE(ApproxCommuteEmbedding::Build(g, options).ok());
}

TEST(ApproxCommuteTest, SelfDistanceZero) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(1, 2, 1.0).ok());
  auto oracle = ApproxCommuteEmbedding::Build(g);
  ASSERT_TRUE(oracle.ok());
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(oracle->CommuteTime(i, i), 0.0);
}

TEST(ApproxCommuteTest, EmbeddingDimensionsMatch) {
  WeightedGraph g(5);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ApproxCommuteOptions options;
  options.embedding_dim = 13;
  auto oracle = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->embedding_dim(), 13u);
  EXPECT_EQ(oracle->num_nodes(), 5u);
  EXPECT_EQ(oracle->embedding().rows(), 5u);
  EXPECT_EQ(oracle->embedding().cols(), 13u);
}

TEST(ApproxCommuteTest, ApproximatesExactOnSmallGraph) {
  // With a large embedding dimension, every pairwise distance should be
  // within ~25% of the exact value (JL concentration).
  WeightedGraph g(10);
  for (NodeId i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(g.SetEdge(i, i + 1, 1.0 + 0.3 * i).ok());
  }
  ASSERT_TRUE(g.SetEdge(0, 9, 0.5).ok());
  ASSERT_TRUE(g.SetEdge(2, 7, 1.0).ok());

  auto exact = ExactCommuteTime::Build(g);
  ASSERT_TRUE(exact.ok());
  ApproxCommuteOptions options;
  options.embedding_dim = 600;
  options.seed = 5;
  auto approx = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(approx.ok());

  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = i + 1; j < 10; ++j) {
      const double e = exact->CommuteTime(i, j);
      const double a = approx->CommuteTime(i, j);
      EXPECT_NEAR(a, e, 0.25 * e) << "pair " << i << "," << j;
    }
  }
}

TEST(ApproxCommuteTest, AccuracyImprovesWithDimension) {
  RandomGraphOptions opts;
  opts.num_nodes = 40;
  opts.average_degree = 6.0;
  opts.seed = 12;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  auto exact = ExactCommuteTime::Build(g);
  ASSERT_TRUE(exact.ok());

  const auto mean_relative_error = [&](size_t k) {
    ApproxCommuteOptions options;
    options.embedding_dim = k;
    options.seed = 3;
    auto approx = ApproxCommuteEmbedding::Build(g, options);
    CAD_CHECK(approx.ok());
    double total = 0.0;
    size_t count = 0;
    for (NodeId i = 0; i < 40; ++i) {
      for (NodeId j = i + 1; j < 40; ++j) {
        const double e = exact->CommuteTime(i, j);
        // Skip sentinels.
        if (e <= 0.0 || e >= Snapshot(g).volume() * 40) continue;
        total += std::fabs(approx->CommuteTime(i, j) - e) / e;
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };

  const double err_small = mean_relative_error(4);
  const double err_large = mean_relative_error(400);
  EXPECT_LT(err_large, err_small);
  EXPECT_LT(err_large, 0.10);
}

TEST(ApproxCommuteTest, CrossComponentPaperModeMatchesExact) {
  // Default policy: the embedding estimates Eq. 3 on the global L+, which
  // across components is V_G (l+_uu + l+_vv) = 2 for two disjoint unit
  // edges (see the exact-engine test).
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 1.0).ok());
  ApproxCommuteOptions options;
  options.embedding_dim = 2000;
  auto oracle = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(oracle->CommuteTime(0, 2), 2.0, 0.4);
  EXPECT_NEAR(oracle->CommuteTime(0, 1), 4.0, 0.6);
}

TEST(ApproxCommuteTest, CrossComponentStrictModeUsesSentinel) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.SetEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.SetEdge(2, 3, 1.0).ok());
  ApproxCommuteOptions options;
  options.commute.use_cross_component_sentinel = true;
  auto oracle = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ(oracle->CommuteTime(0, 2), Snapshot(g).volume() * 4.0);
  EXPECT_GT(oracle->CommuteTime(0, 3), oracle->CommuteTime(0, 1));
}

TEST(ApproxCommuteTest, DeterministicGivenSeed) {
  WeightedGraph g(6);
  for (NodeId i = 0; i + 1 < 6; ++i) ASSERT_TRUE(g.SetEdge(i, i + 1, 1.0).ok());
  ApproxCommuteOptions options;
  options.seed = 42;
  auto a = ApproxCommuteEmbedding::Build(g, options);
  auto b = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding().MaxAbsDifference(b->embedding()), 0.0);
}

TEST(ApproxCommuteTest, SymmetricDistances) {
  RandomGraphOptions opts;
  opts.num_nodes = 30;
  opts.average_degree = 4.0;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  auto oracle = ApproxCommuteEmbedding::Build(g);
  ASSERT_TRUE(oracle.ok());
  for (NodeId i = 0; i < 30; i += 2) {
    for (NodeId j = 1; j < 30; j += 3) {
      EXPECT_DOUBLE_EQ(oracle->CommuteTime(i, j), oracle->CommuteTime(j, i));
    }
  }
}

TEST(ApproxCommuteTest, TracksCgIterations) {
  WeightedGraph g(10);
  for (NodeId i = 0; i + 1 < 10; ++i) ASSERT_TRUE(g.SetEdge(i, i + 1, 1.0).ok());
  auto oracle = ApproxCommuteEmbedding::Build(g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_GT(oracle->total_cg_iterations(), 0u);
}

/// Parameterized: the relative ordering of distances is already stable at
/// moderate k across seeds — near vs far node pairs on a dumbbell graph.
class ApproxOrderingSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproxOrderingSweep, NearPairsCloserThanFarPairs) {
  // Dumbbell: two unit-weight cliques joined by one weak edge.
  const size_t half = 6;
  WeightedGraph g(2 * half);
  for (NodeId i = 0; i < half; ++i) {
    for (NodeId j = i + 1; j < half; ++j) {
      ASSERT_TRUE(g.SetEdge(i, j, 1.0).ok());
      ASSERT_TRUE(g.SetEdge(half + i, half + j, 1.0).ok());
    }
  }
  ASSERT_TRUE(g.SetEdge(0, half, 0.1).ok());

  ApproxCommuteOptions options;
  options.embedding_dim = 50;
  options.seed = GetParam();
  auto oracle = ApproxCommuteEmbedding::Build(g, options);
  ASSERT_TRUE(oracle.ok());
  // Any same-clique pair must be closer than any cross-clique pair.
  const double same = oracle->CommuteTime(1, 2);
  const double cross = oracle->CommuteTime(1, half + 1);
  EXPECT_LT(same, cross);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxOrderingSweep,
                         ::testing::Values(1, 7, 19, 23, 101));

WeightedGraph WarmStartFixtureGraph() {
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  opts.seed = 71;
  return MakeRandomSparseGraph(opts);
}

ApproxCommuteOptions WarmStartOptions() {
  ApproxCommuteOptions options;
  options.embedding_dim = 24;
  options.seed = 17;
  options.warm_start = true;
  return options;
}

TEST(ApproxWarmStartTest, SameGraphSecondBuildNeedsAlmostNoIterations) {
  // Rebuilding the identical snapshot warm: the previous embedding already
  // solves every system to tolerance, so CG converges (near) immediately.
  const WeightedGraph g = WarmStartFixtureGraph();
  const ApproxCommuteOptions options = WarmStartOptions();
  CommuteSolverCache cache(options.refactor_threshold);
  auto cold = ApproxCommuteEmbedding::Build(g, options, &cache);
  ASSERT_TRUE(cold.ok());
  auto warm = ApproxCommuteEmbedding::Build(g, options, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cold->total_cg_iterations(), 0u);
  // Each system starts at its own converged solution; at most a rounding
  // residual's worth of polish per system remains.
  EXPECT_LE(warm->total_cg_iterations(), options.embedding_dim);
  EXPECT_LT(warm->embedding().MaxAbsDifference(cold->embedding()), 1e-8);
}

TEST(ApproxWarmStartTest, PerturbedGraphWarmBuildSavesIterations) {
  // A lightly perturbed snapshot: the previous embedding is a strong guess,
  // so the warm build must need strictly fewer CG iterations than cold.
  const WeightedGraph before = WarmStartFixtureGraph();
  WeightedGraph after = before;
  ASSERT_TRUE(after.SetEdge(0, 1, 2.5).ok());
  ASSERT_TRUE(after.SetEdge(10, 30, 0.7).ok());
  const ApproxCommuteOptions options = WarmStartOptions();

  CommuteSolverCache cache(options.refactor_threshold);
  ASSERT_TRUE(ApproxCommuteEmbedding::Build(before, options, &cache).ok());
  auto warm = ApproxCommuteEmbedding::Build(after, options, &cache);
  ASSERT_TRUE(warm.ok());

  auto cold = ApproxCommuteEmbedding::Build(after, options, nullptr);
  ASSERT_TRUE(cold.ok());
  EXPECT_LT(warm->total_cg_iterations(), cold->total_cg_iterations());
  // Same edge-keyed right-hand sides, same solves to the same tolerance: the
  // two embeddings agree to solver precision (amplified at most by the
  // regularized Laplacian's smallest eigenvalue).
  EXPECT_LT(warm->embedding().MaxAbsDifference(cold->embedding()), 1e-2);
}

TEST(ApproxWarmStartTest, WarmEmbeddingStillApproximatesExact) {
  const WeightedGraph before = WarmStartFixtureGraph();
  WeightedGraph after = before;
  ASSERT_TRUE(after.SetEdge(2, 3, 1.9).ok());
  ApproxCommuteOptions options = WarmStartOptions();
  options.embedding_dim = 500;

  CommuteSolverCache cache(options.refactor_threshold);
  ASSERT_TRUE(ApproxCommuteEmbedding::Build(before, options, &cache).ok());
  auto warm = ApproxCommuteEmbedding::Build(after, options, &cache);
  ASSERT_TRUE(warm.ok());
  auto exact = ExactCommuteTime::Build(after);
  ASSERT_TRUE(exact.ok());
  double total = 0.0;
  size_t count = 0;
  for (NodeId i = 0; i < 60; i += 3) {
    for (NodeId j = i + 1; j < 60; j += 4) {
      const double e = exact->CommuteTime(i, j);
      if (e <= 0.0) continue;
      total += std::fabs(warm->CommuteTime(i, j) - e) / e;
      ++count;
    }
  }
  EXPECT_LT(total / static_cast<double>(count), 0.15);
}

TEST(ApproxWarmStartTest, WarmStartOffIsBitIdenticalToLegacyBuild) {
  // The default path must not change: passing a cache with warm_start off
  // (or no cache at all) reproduces the historical stream-order embedding.
  const WeightedGraph g = WarmStartFixtureGraph();
  ApproxCommuteOptions options;
  options.embedding_dim = 24;
  options.seed = 17;
  auto legacy = ApproxCommuteEmbedding::Build(g, options);
  CommuteSolverCache cache;
  auto with_cache = ApproxCommuteEmbedding::Build(g, options, &cache);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(with_cache.ok());
  EXPECT_EQ(legacy->embedding().MaxAbsDifference(with_cache->embedding()),
            0.0);
  EXPECT_EQ(cache.PreviousEmbedding(60, 24), nullptr);  // nothing stored
}

TEST(ApproxWarmStartTest, BlockSolverMatchesSerialUnderWarmStart) {
  // Warm-started IC(0) timelines through the block solver: splitting the k
  // columns across threads must reproduce the serial one-chunk solve.
  const WeightedGraph before = WarmStartFixtureGraph();
  WeightedGraph after = before;
  ASSERT_TRUE(after.SetEdge(5, 6, 3.0).ok());
  ApproxCommuteOptions options = WarmStartOptions();
  options.cg.preconditioner = CgPreconditioner::kIncompleteCholesky;

  const auto build_timeline = [&](size_t threads) {
    ApproxCommuteOptions o = options;
    o.cg.num_threads = threads;
    CommuteSolverCache cache(o.refactor_threshold);
    auto first = ApproxCommuteEmbedding::Build(before, o, &cache);
    CAD_CHECK(first.ok());
    return ApproxCommuteEmbedding::Build(after, o, &cache);
  };
  auto serial = build_timeline(1);
  auto block = build_timeline(4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(serial->total_cg_iterations(), block->total_cg_iterations());
  EXPECT_EQ(serial->embedding().MaxAbsDifference(block->embedding()), 0.0);
}

TEST(ApproxWarmStartTest, EmbeddingDimensionChangeInvalidatesCache) {
  const WeightedGraph g = WarmStartFixtureGraph();
  ApproxCommuteOptions options = WarmStartOptions();
  CommuteSolverCache cache(options.refactor_threshold);
  ASSERT_TRUE(ApproxCommuteEmbedding::Build(g, options, &cache).ok());
  options.embedding_dim = 12;  // previous 24-dim embedding no longer fits
  auto rebuilt = ApproxCommuteEmbedding::Build(g, options, &cache);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(rebuilt->total_cg_iterations(), 0u);
  EXPECT_EQ(rebuilt->embedding_dim(), 12u);
}

}  // namespace
}  // namespace cad
