#include "commute/solver_cache.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/check.h"
#include "graph/graph.h"
#include "graph/snapshot.h"

namespace cad {
namespace {

/// A small connected graph whose edge weights are scaled by `weight_scale`
/// (scaling every weight by s scales the Laplacian diagonal by s, making the
/// drift ratio exactly |s - 1| against the unscaled snapshot).
CsrMatrix ScaledLaplacian(double weight_scale, size_t n = 12) {
  WeightedGraph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    CAD_CHECK_OK(g.SetEdge(u, u + 1, weight_scale));
  }
  CAD_CHECK_OK(g.SetEdge(0, n - 1, 2.0 * weight_scale));
  return ToLaplacianCsr(g, 1e-6);
}

TEST(SolverCacheTest, FirstCallFactorizes) {
  CommuteSolverCache cache(0.25);
  Result<const IncompleteCholesky*> factor =
      cache.FactorFor(ScaledLaplacian(1.0));
  ASSERT_TRUE(factor.ok());
  ASSERT_NE(*factor, nullptr);
  EXPECT_EQ(cache.state().refactorizations, 1u);
  EXPECT_EQ(cache.state().factor_reuses, 0u);
  EXPECT_EQ(cache.state().last_relative_change, 0.0);
}

TEST(SolverCacheTest, IdenticalLaplacianReusesFactor) {
  CommuteSolverCache cache(0.25);
  Result<const IncompleteCholesky*> first =
      cache.FactorFor(ScaledLaplacian(1.0));
  ASSERT_TRUE(first.ok());
  const IncompleteCholesky* original = *first;
  Result<const IncompleteCholesky*> second =
      cache.FactorFor(ScaledLaplacian(1.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, original);
  EXPECT_EQ(cache.state().refactorizations, 1u);
  EXPECT_EQ(cache.state().factor_reuses, 1u);
  EXPECT_EQ(cache.state().last_relative_change, 0.0);
}

TEST(SolverCacheTest, SmallDriftReusesFactor) {
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.1)).ok());
  EXPECT_EQ(cache.state().factor_reuses, 1u);
  EXPECT_EQ(cache.state().refactorizations, 1u);
  EXPECT_NEAR(cache.state().last_relative_change, 0.1, 1e-6);
}

TEST(SolverCacheTest, DriftExactlyAtThresholdStillReuses) {
  // The trigger is strict: change > threshold. Scaling weights by 1.25
  // against a threshold of 0.25 sits exactly on the boundary.
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.25)).ok());
  EXPECT_EQ(cache.state().factor_reuses, 1u);
  EXPECT_EQ(cache.state().refactorizations, 1u);
  EXPECT_NEAR(cache.state().last_relative_change, 0.25, 1e-6);
}

TEST(SolverCacheTest, LargeDriftRefactorizes) {
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(2.0)).ok());
  EXPECT_EQ(cache.state().factor_reuses, 0u);
  EXPECT_EQ(cache.state().refactorizations, 2u);
  EXPECT_NEAR(cache.state().last_relative_change, 1.0, 1e-6);
}

TEST(SolverCacheTest, RefactorizationResetsTheDriftBaseline) {
  // After a refactorization at scale 2.0, a further 10% drift is measured
  // against the new baseline and reuses again.
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(2.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(2.2)).ok());
  EXPECT_EQ(cache.state().refactorizations, 2u);
  EXPECT_EQ(cache.state().factor_reuses, 1u);
  EXPECT_NEAR(cache.state().last_relative_change, 0.1, 1e-6);
}

TEST(SolverCacheTest, ZeroThresholdRefactorizesOnAnyChange) {
  CommuteSolverCache cache(0.0);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  EXPECT_EQ(cache.state().factor_reuses, 1u);  // exactly identical: change == 0
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.000001)).ok());
  EXPECT_EQ(cache.state().refactorizations, 2u);
}

TEST(SolverCacheTest, DimensionChangeRefactorizes) {
  CommuteSolverCache cache(10.0);  // threshold so large drift never triggers
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0, 12)).ok());
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0, 16)).ok());
  EXPECT_EQ(cache.state().refactorizations, 2u);
  EXPECT_EQ(cache.state().factor_reuses, 0u);
}

TEST(SolverCacheTest, ClearDropsFactorAndEmbedding) {
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  cache.StoreEmbedding(std::make_shared<const DenseMatrix>(12, 4));
  ASSERT_NE(cache.PreviousEmbedding(12, 4), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.PreviousEmbedding(12, 4), nullptr);
  // Clear also resets the statistics, so the forced refactorization that
  // follows is counted from a clean slate.
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  EXPECT_EQ(cache.state().refactorizations, 1u);
  EXPECT_EQ(cache.state().factor_reuses, 0u);
}

TEST(SolverCacheTest, EmbeddingShapeMismatchReturnsNull) {
  CommuteSolverCache cache;
  EXPECT_EQ(cache.PreviousEmbedding(12, 4), nullptr);
  cache.StoreEmbedding(std::make_shared<const DenseMatrix>(12, 4));
  EXPECT_NE(cache.PreviousEmbedding(12, 4), nullptr);
  EXPECT_EQ(cache.PreviousEmbedding(12, 5), nullptr);  // k changed
  EXPECT_EQ(cache.PreviousEmbedding(13, 4), nullptr);  // n changed
}

TEST(SolverCacheTest, DimensionChangeKeepsDriftGaugeHonest) {
  // Node-set growth must register as the large drift it is (computed over
  // the union index range, missing entries read as zero) instead of
  // silently resetting the gauge, and must be counted as a dimension
  // invalidation distinct from drift-triggered refactorizations.
  CommuteSolverCache cache(10.0);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0, 12)).ok());
  EXPECT_EQ(cache.state().dimension_invalidations, 0u);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0, 16)).ok());
  EXPECT_EQ(cache.state().dimension_invalidations, 1u);
  // The four appended path nodes contribute their whole degree as change.
  EXPECT_GT(cache.state().last_relative_change, 0.0);
}

TEST(SolverCacheTest, RestoreRejectsNonSquareFactor) {
  CommuteSolverCache cache;
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  CommuteSolverCache::State state = cache.state();
  CsrMatrix rectangular(3, 4, {0, 0, 0, 0}, {}, {});
  state.factor = IncompleteCholesky::FromFactor(rectangular, 0.0);
  CommuteSolverCache restored;
  const Status status = restored.RestoreState(std::move(state));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SolverCacheTest, RestoreRejectsDiagonalFactorSizeMismatch) {
  // The regression this guards: a checkpoint whose factor_diagonal was
  // truncated relative to the factor dimension used to be installed as-is,
  // and the next FactorFor indexed the short diagonal out of bounds.
  CommuteSolverCache cache;
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  CommuteSolverCache::State state = cache.state();
  ASSERT_FALSE(state.factor_diagonal.empty());
  state.factor_diagonal.pop_back();
  CommuteSolverCache restored;
  const Status status = restored.RestoreState(std::move(state));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SolverCacheTest, RestoreRejectsDiagonalWithoutFactor) {
  CommuteSolverCache::State state;
  state.factor_diagonal = {1.0, 2.0};
  CommuteSolverCache restored;
  const Status status = restored.RestoreState(std::move(state));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SolverCacheTest, RejectedRestoreLeavesCacheUntouched) {
  CommuteSolverCache cache(0.25);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  cache.StoreEmbedding(std::make_shared<const DenseMatrix>(12, 4));

  CommuteSolverCache::State corrupt = cache.state();
  corrupt.factor_diagonal.pop_back();
  ASSERT_FALSE(cache.RestoreState(std::move(corrupt)).ok());

  // The previously cached factor and embedding are still served.
  EXPECT_NE(cache.PreviousEmbedding(12, 4), nullptr);
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0)).ok());
  EXPECT_EQ(cache.state().factor_reuses, 1u);
  EXPECT_EQ(cache.state().refactorizations, 1u);
}

TEST(SolverCacheTest, RestoredStateOfOtherDimensionIsGuarded) {
  // A *valid* state of a different dimension than the next stream's graphs
  // (say, a checkpoint from before node growth) must be handled by
  // invalidation, not out-of-bounds reads.
  CommuteSolverCache cache;
  ASSERT_TRUE(cache.FactorFor(ScaledLaplacian(1.0, 12)).ok());
  CommuteSolverCache restored;
  ASSERT_TRUE(restored.RestoreState(cache.state()).ok());
  ASSERT_TRUE(restored.FactorFor(ScaledLaplacian(1.0, 16)).ok());
  EXPECT_EQ(restored.state().dimension_invalidations, 1u);
  // The exported counter (1 refactorization) carries over; the dimension
  // invalidation adds the second.
  EXPECT_EQ(restored.state().refactorizations, 2u);
}

TEST(SolverCacheTest, IncrementalRhsShapeGating) {
  CommuteSolverCache cache;
  EXPECT_EQ(cache.IncrementalRhs(12, 4), nullptr);
  DenseMatrix rhs(12, 4);  // node-major n x k
  rhs(3, 1) = 0.75;
  cache.StoreIncrementalRhs(rhs);
  ASSERT_NE(cache.IncrementalRhs(12, 4), nullptr);
  EXPECT_EQ((*cache.IncrementalRhs(12, 4))(3, 1), 0.75);
  ASSERT_NE(cache.MutableIncrementalRhs(12, 4), nullptr);
  EXPECT_EQ(cache.IncrementalRhs(13, 4), nullptr);  // n changed
  EXPECT_EQ(cache.IncrementalRhs(12, 5), nullptr);  // k changed
  cache.Clear();
  EXPECT_EQ(cache.IncrementalRhs(12, 4), nullptr);
}

TEST(SolverCacheTest, IncrementalAccountingAndChurnAdmission) {
  CommuteSolverCache cache;
  EXPECT_TRUE(cache.AdmitChurn(0.01, 0.25));
  EXPECT_EQ(cache.state().last_churn_ratio, 0.01);
  EXPECT_EQ(cache.state().churn_rejections, 0u);
  EXPECT_FALSE(cache.AdmitChurn(0.5, 0.25));
  EXPECT_EQ(cache.state().last_churn_ratio, 0.5);
  EXPECT_EQ(cache.state().churn_rejections, 1u);
  // Threshold is inclusive: ratio == threshold is admitted.
  EXPECT_TRUE(cache.AdmitChurn(0.25, 0.25));

  cache.RecordIncrementalBuild(2, 8);
  cache.RecordIncrementalBuild(0, 8);
  EXPECT_EQ(cache.state().incremental_builds, 2u);
  EXPECT_EQ(cache.state().rhs_resolved, 2u);
  EXPECT_EQ(cache.state().rhs_reused, 14u);
  EXPECT_EQ(cache.state().last_resolved_fraction, 0.0);
}

TEST(SolverCacheTest, IncrementalStateRoundTripsThroughExportRestore) {
  CommuteSolverCache cache;
  DenseMatrix rhs(6, 3);
  rhs(5, 2) = -1.25;
  cache.StoreIncrementalRhs(rhs);
  cache.RecordIncrementalBuild(1, 3);
  EXPECT_FALSE(cache.AdmitChurn(0.9, 0.25));

  CommuteSolverCache restored;
  ASSERT_TRUE(restored.RestoreState(cache.state()).ok());
  ASSERT_NE(restored.IncrementalRhs(6, 3), nullptr);
  EXPECT_EQ((*restored.IncrementalRhs(6, 3))(5, 2), -1.25);
  EXPECT_EQ(restored.state().incremental_builds, 1u);
  EXPECT_EQ(restored.state().rhs_resolved, 1u);
  EXPECT_EQ(restored.state().rhs_reused, 2u);
  EXPECT_NEAR(restored.state().last_resolved_fraction, 1.0 / 3.0, 1e-15);
  EXPECT_EQ(restored.state().last_churn_ratio, 0.9);
  EXPECT_EQ(restored.state().churn_rejections, 1u);
}

TEST(SolverCacheTest, StoredEmbeddingRoundTrips) {
  CommuteSolverCache cache;
  DenseMatrix z(2, 3);
  z(0, 0) = 1.5;
  z(1, 2) = -2.25;
  cache.StoreEmbedding(std::make_shared<const DenseMatrix>(z));
  const std::shared_ptr<const DenseMatrix> stored =
      cache.PreviousEmbedding(2, 3);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ((*stored)(0, 0), 1.5);
  EXPECT_EQ((*stored)(1, 2), -2.25);
}

}  // namespace
}  // namespace cad
