#ifndef CAD_COMMUTE_APPROX_COMMUTE_H_
#define CAD_COMMUTE_APPROX_COMMUTE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "commute/commute_time.h"
#include "graph/components.h"
#include "graph/edge_delta.h"
#include "graph/snapshot.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/dense_matrix.h"

namespace cad {

class CommuteSolverCache;

/// \brief Options for the approximate commute-time embedding.
struct ApproxCommuteOptions {
  /// Embedding dimension k (the paper's k_RP). The Johnson-Lindenstrauss
  /// guarantee needs k = O(log n / eps^2); the paper finds k > 10 is already
  /// stable and uses k = 50 throughout (§4.1.1, §4.2).
  size_t embedding_dim = 50;
  /// Seed for the random projection.
  uint64_t seed = 1;
  /// Linear solver configuration for the k Laplacian systems;
  /// cg.num_threads (default: every allowed CPU) solves the k independent
  /// systems concurrently.
  CgOptions cg;
  /// Numerical handling shared with the exact engine.
  CommuteTimeOptions commute;
  /// Require CG convergence on every system; if false, the best-effort
  /// solution is used (matching the spirit of approximate solvers).
  bool require_convergence = false;
  /// Temporal warm-starting (opt-in). Draws each edge's JL projection from a
  /// generator keyed on (seed, u, v) instead of the edge-stream position, so
  /// consecutive snapshots' right-hand sides stay correlated under edge
  /// churn; and, when Build is given a CommuteSolverCache, seeds CG with the
  /// previous snapshot's embedding and (with kIncompleteCholesky) reuses its
  /// IC(0) factorization until stale. Off by default — the default path is
  /// bit-identical to the historical construction.
  bool warm_start = false;
  /// Relative Laplacian-diagonal change above which a cached IC(0) factor
  /// is refactorized (see CommuteSolverCache). Only read under warm_start.
  double refactor_threshold = 0.1;
  /// Incremental maintenance (opt-in; requires warm_start for the
  /// edge-keyed JL draws and a cache to hold the state). Full builds
  /// additionally persist the JL right-hand-side block in the cache;
  /// BuildIncremental then updates that block in
  /// O(churn * k), re-solves only the columns whose exact residual against
  /// the new Laplacian exceeds incremental_tolerance, and reuses the rest
  /// of the cached embedding verbatim. See DESIGN.md §12.
  bool incremental = false;
  /// Relative-residual bound under which a cached embedding column is
  /// reused without a re-solve: column r is kept when
  /// ||y_r - L z_r|| <= incremental_tolerance * ||y_r||. Every column of an
  /// incremental build therefore satisfies the residual contract
  /// max(incremental_tolerance, cg.tolerance) by construction. Calibration:
  /// the JL construction spreads each edge across all k columns, so churning
  /// a (weight) fraction c of the edge set since a column's last solve moves
  /// its relative residual to ~sqrt(c); a column therefore re-solves about
  /// every tolerance^2 / c_window windows. The default 0.15 amortizes to
  /// <5% of columns re-solved per window at 0.1% churn — and stays well
  /// inside the embedding's own JL error, sqrt(log n / k) ~= 0.4 at the
  /// paper's k = 50 — while an anomalous burst (heavy churn) immediately
  /// pushes every column past the gate, so quality reverts to a full
  /// re-solve exactly when the window matters.
  double incremental_tolerance = 0.15;
};

/// \brief Approximate commute-time distances via the Khoa-Chawla / Spielman-
/// Srivastava resistance embedding (paper §3.1, reference [15]).
///
/// Construction, for a snapshot with n nodes, m edges and volume V_G:
///  1. Form Y = Q W^{1/2} B, where B is the m x n signed incidence matrix,
///     W the diagonal edge-weight matrix, and Q a k x m Johnson-
///     Lindenstrauss matrix with entries ±1/sqrt(k). Y is built in O(k m)
///     by streaming edges; Q is never materialized.
///  2. Solve L z_r = y_r for each of the k columns of Y^T with Jacobi-
///     preconditioned CG against the epsilon-regularized Laplacian (the
///     stand-in for the Spielman-Teng solver; see DESIGN.md substitutions).
///     The solutions form the n x k embedding Z, one row per node.
///  3. Then c(u, v) ≈ V_G * || z_u - z_v ||^2 over rows u and v of Z, a
///     (1 ± eps) estimate of the true commute time for k = O(log n / eps^2).
///
/// Cross-component queries follow the policy in CommuteTimeOptions: by
/// default the embedding's own estimate is returned, which approximates the
/// paper-faithful Eq. 3 value V_G (l+_uu + l+_vv); with the strict sentinel
/// policy the engine detects components and returns the sentinel instead
/// (matching the exact engine).
class ApproxCommuteEmbedding : public CommuteTimeOracle {
 public:
  /// Builds the embedding for one snapshot. Returns InvalidArgument for a
  /// zero embedding dimension and NumericalError if CG fails while
  /// `require_convergence` is set.
  ///
  /// `cache` carries cross-snapshot warm-start state: under
  /// options.warm_start it supplies the previous embedding as CG initial
  /// guesses and a staleness-gated IC(0) factorization, and keeps this
  /// snapshot's embedding, the returned oracle's own block, for the next
  /// call. A nullptr cache (or warm_start == false) gives the stateless
  /// build.
  [[nodiscard]] static Result<ApproxCommuteEmbedding> Build(
      const Snapshot& snapshot,
      const ApproxCommuteOptions& options = ApproxCommuteOptions(),
      CommuteSolverCache* cache = nullptr);

  /// Incremental build from the cache's previous-snapshot state (embedding
  /// + JL right-hand-side block) and the edge delta to this snapshot:
  /// updates the cached RHS in O(churn * k), computes every column's exact
  /// residual against the new regularized Laplacian with one SpMM, re-solves
  /// (warm-started) only the columns above incremental_tolerance, and reuses
  /// the rest verbatim. With no column re-solved the oracle shares the
  /// cached block; otherwise the block is copied once, the solved columns
  /// are written into the copy, and the cache and the oracle share it.
  /// Requires options.incremental && options.warm_start and a cache holding
  /// state of matching shape; returns FailedPrecondition when the state is
  /// missing or mismatched (caller falls back to the full Build, which
  /// re-seeds the state).
  [[nodiscard]] static Result<ApproxCommuteEmbedding> BuildIncremental(
      const Snapshot& snapshot, const EdgeDelta& delta,
      const ApproxCommuteOptions& options, CommuteSolverCache* cache);

  /// Reassembles an oracle from previously exported internals (see the
  /// accessors below); used by checkpoint restore, which must reproduce a
  /// built oracle exactly rather than re-run Build. The caller is
  /// responsible for passing mutually consistent parts.
  static ApproxCommuteEmbedding FromParts(DenseMatrix embedding,
                                          ComponentLabeling components,
                                          double volume, double sentinel,
                                          bool use_sentinel,
                                          CgBatchStats cg_stats) {
    return ApproxCommuteEmbedding(
        std::make_shared<const DenseMatrix>(std::move(embedding)),
        std::move(components), volume, sentinel, use_sentinel, cg_stats);
  }

  double CommuteTime(NodeId u, NodeId v) const override;

  size_t num_nodes() const override { return embedding_->rows(); }

  size_t embedding_dim() const { return embedding_->cols(); }

  /// The n x k embedding matrix Z, the block the solver writes; row i is
  /// node i's embedding. Distances in this space, scaled by volume,
  /// approximate commute times.
  const DenseMatrix& embedding() const { return *embedding_; }

  double volume() const { return volume_; }

  const ComponentLabeling& components() const { return components_; }
  double sentinel() const { return sentinel_; }
  bool use_sentinel() const { return use_sentinel_; }

  /// Total CG iterations spent across the k solves (for benchmarking).
  size_t total_cg_iterations() const { return cg_stats_.total_iterations; }

  /// Per-batch CG statistics (count / min / max / total iterations, worst
  /// residual) for the k Laplacian solves behind this embedding.
  const CgBatchStats& cg_stats() const { return cg_stats_; }

 private:
  ApproxCommuteEmbedding(std::shared_ptr<const DenseMatrix> embedding,
                         ComponentLabeling components, double volume,
                         double sentinel, bool use_sentinel,
                         CgBatchStats cg_stats)
      : embedding_(std::move(embedding)),
        components_(std::move(components)),
        volume_(volume),
        sentinel_(sentinel),
        use_sentinel_(use_sentinel),
        cg_stats_(cg_stats) {}

  // n x k, node-major. Immutable and shared: a warm-started build hands the
  // same block to the CommuteSolverCache as the next snapshot's initial
  // guess, and an incremental build that re-solves no column keeps the
  // previous oracle's block.
  std::shared_ptr<const DenseMatrix> embedding_;
  ComponentLabeling components_;
  double volume_;
  double sentinel_;
  bool use_sentinel_;
  CgBatchStats cg_stats_;
};

}  // namespace cad

#endif  // CAD_COMMUTE_APPROX_COMMUTE_H_
