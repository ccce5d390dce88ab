#ifndef CAD_COMMUTE_SOLVER_CACHE_H_
#define CAD_COMMUTE_SOLVER_CACHE_H_

#include <memory>
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
/// Ownership: the embedding is held as a shared_ptr to const, the same
/// immutable block the oracle built from it scores with, so storing it
/// copies nothing and neither owner can alter what the other reads.
/// Growing a previous oracle pads a new block for the oracle alone, and
/// Clear drops only the cache's reference.
///
/// Not thread-safe: intended for the sequential snapshot loop in
/// CadDetector::Analyze / OnlineCadMonitor, one cache per timeline.
class CommuteSolverCache {
 public:
  /// \brief Everything FactorFor/PreviousEmbedding/IncrementalRhs depend
  /// on, held once: the cache's only state besides its threshold.
  /// Checkpoints read it through state() and a resume installs it with
  /// RestoreState; a restored state reproduces the cache's future behavior
  /// exactly (the same warm starts, the same reuse-vs-refactor decisions,
  /// the same incremental column reuse).
  struct State {
    /// The previous snapshot's node-major n x k embedding, the block
    /// solver's initial guess. Shared with the oracle built from it: the
    /// block is immutable, so neither owner can change the other's copy.
    std::shared_ptr<const DenseMatrix> embedding;
    /// The cached IC(0) factor and the Laplacian diagonal it was built from.
    std::optional<IncompleteCholesky> factor;
    std::vector<double> factor_diagonal;
    /// How often FactorFor served the cached factor / had to refactorize.
    size_t factor_reuses = 0;
    size_t refactorizations = 0;
    /// The drift ratio observed by the most recent FactorFor call (0 when
    /// it had no cached factor to compare against; computed over the union
    /// index range when the dimension changed).
    double last_relative_change = 0.0;
    /// Incremental-maintenance section (checkpoint v3; absent/zero when the
    /// incremental path never ran): the node-major n x k JL right-hand-side
    /// block, completed incremental builds, cumulative RHS columns
    /// re-solved/reused, the re-solve fraction of the most recent
    /// incremental build, the most recent churn ratio offered to
    /// AdmitChurn, and how many windows it rejected.
    std::optional<DenseMatrix> incremental_rhs;
    size_t incremental_builds = 0;
    size_t rhs_resolved = 0;
    size_t rhs_reused = 0;
    double last_resolved_fraction = 0.0;
    double last_churn_ratio = 0.0;
    /// How often FactorFor had a cached factor of the wrong dimension
    /// (node-set growth between windows).
    size_t dimension_invalidations = 0;
    size_t churn_rejections = 0;
  };

  explicit CommuteSolverCache(double refactor_threshold = 0.1)
      : refactor_threshold_(refactor_threshold) {}

  /// The stored embedding if it matches the requested n x k shape (node
  /// count or embedding dimension changes invalidate it); else nullptr.
  std::shared_ptr<const DenseMatrix> PreviousEmbedding(
      size_t num_nodes, size_t embedding_dim) const;

  /// Keeps a reference to an n x k embedding for the next snapshot's warm
  /// start; the block is shared, not copied.
  void StoreEmbedding(std::shared_ptr<const DenseMatrix> embedding);

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
  /// FactorFor, Clear or RestoreState call.
  [[nodiscard]] Result<const IncompleteCholesky*> FactorFor(
      const CsrMatrix& laplacian);

  /// Drops all cached state (embedding, factor, and incremental state). An
  /// oracle sharing the embedding keeps its own reference.
  void Clear() { state_ = State(); }

  /// Approximate heap footprint of the cached state in bytes: the embedding
  /// (counted in full even while an oracle shares it), the IC(0) factor
  /// (lower triangle plus its stored transpose) and its reference diagonal,
  /// and the incremental RHS block. Accounting input for a shared memory
  /// budget across many caches (the multi-tenant server).
  size_t ApproxBytes() const;

  /// The cache's whole state, read in place (checkpointing, accounting).
  const State& state() const { return state_; }

  /// Validates `state`'s internal invariants and, on success, installs it.
  /// Rejects (InvalidArgument, cache untouched) states whose factor parts
  /// are mutually inconsistent — a non-square factor, a factor_diagonal
  /// whose size differs from the factor dimension, or a diagonal with no
  /// factor — since FactorFor's drift loop indexes the diagonal by factor
  /// dimension and a corrupted checkpoint must not turn into an
  /// out-of-bounds read.
  [[nodiscard]] Status RestoreState(State state);

  double refactor_threshold() const { return refactor_threshold_; }

 private:
  double refactor_threshold_;
  State state_;
};

}  // namespace cad

#endif  // CAD_COMMUTE_SOLVER_CACHE_H_
