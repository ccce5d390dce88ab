#ifndef CAD_COMMUTE_SOLVER_CACHE_H_
#define CAD_COMMUTE_SOLVER_CACHE_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief Cross-snapshot state for temporally warm-started commute
/// embeddings: the previous snapshot's embedding (CG initial guesses), a
/// cached IC(0) factorization with a relative-weight-change staleness
/// trigger, and — under incremental maintenance — the previous snapshot's
/// JL right-hand-side block plus churn/reuse accounting.
///
/// Consecutive snapshots of a temporal graph differ by a handful of edges,
/// so snapshot t's embedding is an excellent starting point for snapshot
/// t+1's solves, and the IC(0) factor of L_t preconditions L_{t+1} nearly as
/// well as its own factor would — until the graph has drifted. Drift is
/// measured on the Laplacian diagonal (the weighted degrees):
///
///   sum_i |d_new[i] - d_cached[i]| / sum_i |d_cached[i]|
///
/// A factor is reused while this ratio stays <= refactor_threshold (strict
/// inequality triggers the refactorization) and the dimension matches. When
/// the dimension *changes* (node-set growth), the ratio is still computed —
/// over the union index range, with missing entries read as zero — so the
/// staleness gauge reflects the churn instead of resetting to zero, and the
/// invalidation is counted separately (commute.ic0_dimension_invalidations).
///
/// Not thread-safe: intended for the sequential snapshot loop in
/// CadDetector::Analyze / OnlineCadMonitor, one cache per timeline.
class CommuteSolverCache {
 public:
  explicit CommuteSolverCache(double refactor_threshold = 0.1)
      : refactor_threshold_(refactor_threshold) {}

  /// The stored node-major embedding, the block solver's initial guess, if
  /// it matches the requested n x k shape (node count or embedding
  /// dimension changes invalidate it); else nullptr.
  const DenseMatrix* PreviousEmbedding(size_t num_nodes,
                                       size_t embedding_dim) const;

  /// Stores an n x k embedding for the next snapshot's warm start.
  void StoreEmbedding(const DenseMatrix& embedding);

  /// The cached JL right-hand-side block (node-major n x k) if it matches
  /// the requested shape; else nullptr. Maintained only by the incremental
  /// build path (ApproxCommuteOptions::incremental).
  const DenseMatrix* IncrementalRhs(size_t num_nodes,
                                    size_t embedding_dim) const;

  /// Mutable access for the in-place O(churn * k) delta application; nullptr
  /// under the same shape mismatches as IncrementalRhs.
  DenseMatrix* MutableIncrementalRhs(size_t num_nodes, size_t embedding_dim);

  /// Stores the node-major n x k right-hand-side block for the next
  /// snapshot's incremental update (pass an rvalue to store it without a
  /// copy).
  void StoreIncrementalRhs(DenseMatrix rhs);

  /// Records the outcome of one incremental embedding build: how many of
  /// the k right-hand sides were re-solved vs reused verbatim. Feeds the
  /// reuse counters and the last_resolved_fraction gauge.
  void RecordIncrementalBuild(size_t resolved, size_t total);

  /// Records the edge-churn ratio of an incoming window's delta and returns
  /// whether the incremental path should be attempted (ratio <=
  /// churn_threshold). The ratio is retained as a gauge (last_churn_ratio)
  /// either way, and rejections are counted.
  bool AdmitChurn(double churn_ratio, double churn_threshold);

  /// Returns an IC(0) factor for `laplacian`: the cached one while the
  /// staleness trigger allows, otherwise a fresh factorization (which
  /// becomes the new cached factor). The pointer stays valid until the next
  /// FactorFor or Clear call.
  [[nodiscard]] Result<const IncompleteCholesky*> FactorFor(
      const CsrMatrix& laplacian);

  /// Drops all cached state (embedding, factor, and incremental state).
  void Clear();

  /// Approximate heap footprint of the cached state in bytes: the embedding,
  /// the IC(0) factor (lower triangle plus its stored transpose) and its
  /// reference diagonal, and the incremental RHS block. Accounting input for
  /// a shared memory budget across many caches (the multi-tenant server).
  size_t ApproxBytes() const;

  /// \brief Snapshot of everything FactorFor/PreviousEmbedding/
  /// IncrementalRhs depend on, for checkpointing. Restoring it reproduces
  /// the cache's future behavior exactly: the same warm starts, the same
  /// reuse-vs-refactor decisions, the same incremental column reuse.
  struct State {
    std::optional<DenseMatrix> embedding;
    /// The cached IC(0) factor, decomposed into its defining parts (the
    /// transpose is recomputed on restore).
    std::optional<CsrMatrix> factor_lower;
    double factor_shift = 0.0;
    std::vector<double> factor_diagonal;
    size_t factor_reuses = 0;
    size_t refactorizations = 0;
    double last_relative_change = 0.0;
    /// Incremental-maintenance section (checkpoint v3; absent/zero when the
    /// incremental path never ran).
    std::optional<DenseMatrix> incremental_rhs;
    size_t incremental_builds = 0;
    size_t rhs_resolved = 0;
    size_t rhs_reused = 0;
    double last_resolved_fraction = 0.0;
    double last_churn_ratio = 0.0;
    size_t dimension_invalidations = 0;
    size_t churn_rejections = 0;
  };

  State ExportState() const;

  /// Validates `state`'s internal invariants and, on success, installs it.
  /// Rejects (InvalidArgument, cache untouched) states whose factor parts
  /// are mutually inconsistent — a non-square factor, a factor_diagonal
  /// whose size differs from the factor dimension, or a diagonal with no
  /// factor — since FactorFor's drift loop indexes the diagonal by factor
  /// dimension and a corrupted checkpoint must not turn into an
  /// out-of-bounds read.
  [[nodiscard]] Status RestoreState(State state);

  double refactor_threshold() const { return refactor_threshold_; }
  /// How often FactorFor served the cached factor / had to refactorize.
  size_t factor_reuses() const { return factor_reuses_; }
  size_t refactorizations() const { return refactorizations_; }
  /// The drift ratio observed by the most recent FactorFor call (0 when it
  /// had no cached factor to compare against; computed over the union index
  /// range when the dimension changed).
  double last_relative_change() const { return last_relative_change_; }
  /// How often FactorFor had a cached factor of the wrong dimension
  /// (node-set growth between windows).
  size_t dimension_invalidations() const { return dimension_invalidations_; }

  /// Incremental accounting: completed incremental builds, cumulative RHS
  /// columns re-solved/reused, the re-solve fraction of the most recent
  /// incremental build, the most recent churn ratio offered to AdmitChurn,
  /// and how many windows it rejected.
  size_t incremental_builds() const { return incremental_builds_; }
  size_t rhs_resolved() const { return rhs_resolved_; }
  size_t rhs_reused() const { return rhs_reused_; }
  double last_resolved_fraction() const { return last_resolved_fraction_; }
  double last_churn_ratio() const { return last_churn_ratio_; }
  size_t churn_rejections() const { return churn_rejections_; }

 private:
  double refactor_threshold_;
  std::optional<DenseMatrix> embedding_;  // node-major n x k
  std::optional<IncompleteCholesky> factor_;
  std::vector<double> factor_diagonal_;  // diagonal the factor was built from
  size_t factor_reuses_ = 0;
  size_t refactorizations_ = 0;
  double last_relative_change_ = 0.0;
  std::optional<DenseMatrix> incremental_rhs_;  // node-major n x k
  size_t incremental_builds_ = 0;
  size_t rhs_resolved_ = 0;
  size_t rhs_reused_ = 0;
  double last_resolved_fraction_ = 0.0;
  double last_churn_ratio_ = 0.0;
  size_t dimension_invalidations_ = 0;
  size_t churn_rejections_ = 0;
};

}  // namespace cad

#endif  // CAD_COMMUTE_SOLVER_CACHE_H_
