#include "commute/approx_commute.h"

#include <cmath>

#include "commute/solver_cache.h"
#include "obs/obs.h"

namespace cad {

namespace {

/// Mixes (seed, u, v) into a per-edge generator seed (SplitMix64-style
/// constants) so an edge's JL column depends only on the edge identity, not
/// on its stream position. Under warm-start this keeps consecutive
/// snapshots' right-hand sides correlated even when the edge set churns —
/// with stream-order draws, one inserted edge would reshuffle every later
/// edge's projection and destroy the correlation the initial guess needs.
uint64_t EdgeJlSeed(uint64_t seed, NodeId u, NodeId v) {
  uint64_t x = seed;
  x ^= (static_cast<uint64_t>(u) + 0x9e3779b97f4a7c15ULL) *
       0xbf58476d1ce4e5b9ULL;
  x ^= (static_cast<uint64_t>(v) + 0x94d049bb133111ebULL) *
       0xd6e8feb86659fd93ULL;
  return x;
}

}  // namespace

Result<ApproxCommuteEmbedding> ApproxCommuteEmbedding::Build(
    const WeightedGraph& graph, const ApproxCommuteOptions& options) {
  return Build(graph, options, nullptr);
}

Result<ApproxCommuteEmbedding> ApproxCommuteEmbedding::Build(
    const WeightedGraph& graph, const ApproxCommuteOptions& options,
    CommuteSolverCache* cache) {
  CAD_TRACE_SPAN("approx_commute_build");
  CAD_METRIC_INC("commute.approx_builds");
  const size_t n = graph.num_nodes();
  const size_t k = options.embedding_dim;
  if (k == 0) {
    return Status::InvalidArgument("embedding_dim must be positive");
  }
  if (options.incremental && !options.warm_start) {
    return Status::InvalidArgument(
        "ApproxCommuteEmbedding: incremental requires warm_start (the "
        "edge-keyed JL draws are what make the cached right-hand sides "
        "updatable under churn)");
  }
  const double volume = graph.Volume();
  const double sentinel = CrossComponentSentinel(volume, n, options.commute);
  ComponentLabeling components = ConnectedComponents(graph);

  // Step 1: Y = Q W^{1/2} B, built by streaming edges. For edge e = (u, v,
  // w), row e of W^{1/2} B is sqrt(w) (e_u - e_v)^T, so node u's row of the
  // block gains sqrt(w) * q_e and node v's loses it, where q_e is the e-th
  // column of Q, drawn as k Rademacher entries / sqrt(k). The block is
  // node-major (n x k): each edge touches two contiguous rows, and the
  // solver consumes the k right-hand sides as columns.
  DenseMatrix b(n, k);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  if (options.warm_start) {
    // Edge-keyed draws: stable under edge churn (see EdgeJlSeed).
    for (const Edge& edge : graph.Edges()) {
      Rng rng(EdgeJlSeed(options.seed, edge.u, edge.v));
      const double scale = std::sqrt(edge.weight) * inv_sqrt_k;
      double* bu = b.mutable_row(edge.u);
      double* bv = b.mutable_row(edge.v);
      for (size_t r = 0; r < k; ++r) {
        const double q = rng.Rademacher() * scale;
        bu[r] += q;
        bv[r] -= q;
      }
    }
  } else {
    // Stream-order draws from a single generator, matching the original
    // construction bit for bit.
    Rng rng(options.seed);
    std::vector<double> q(k);
    for (const Edge& edge : graph.Edges()) {
      const double scale = std::sqrt(edge.weight) * inv_sqrt_k;
      for (size_t r = 0; r < k; ++r) q[r] = rng.Rademacher() * scale;
      double* bu = b.mutable_row(edge.u);
      double* bv = b.mutable_row(edge.v);
      for (size_t r = 0; r < k; ++r) {
        bu[r] += q[r];
        bv[r] -= q[r];
      }
    }
  }

  // Step 2: solve L z_r = y_r for each column against the regularized
  // Laplacian. Each y_r sums to zero within every component, so the
  // regularized solution tracks the pseudoinverse solution without a 1/eps
  // blowup (see commute_time.h).
  const double epsilon =
      options.commute.regularization_scale * std::max(volume, 1.0);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(epsilon);
  const ConjugateGradientSolver solver(options.cg);

  // Warm-start state: the previous snapshot's embedding seeds the solves,
  // and (IC(0) only) the cross-snapshot factorization is reused until the
  // cache's staleness trigger fires.
  CgSolveContext context;
  const DenseMatrix* previous =
      options.warm_start && cache != nullptr ? cache->PreviousEmbedding(k, n)
                                             : nullptr;
  DenseMatrix x0;
  if (previous != nullptr) {
    // Stored k x n; the solver wants the node-major n x k guess block.
    x0 = DenseMatrix(n, k);
    for (size_t i = 0; i < n; ++i) {
      double* row = x0.mutable_row(i);
      for (size_t r = 0; r < k; ++r) row[r] = (*previous)(r, i);
    }
    context.initial_guess = &x0;
    CAD_METRIC_INC("commute.warm_started_builds");
  }
  if (options.warm_start && cache != nullptr &&
      options.cg.preconditioner == CgPreconditioner::kIncompleteCholesky) {
    CAD_ASSIGN_OR_RETURN(context.cached_factor, cache->FactorFor(laplacian));
  }

  DenseMatrix x;
  std::vector<CgSummary> summaries;
  CAD_ASSIGN_OR_RETURN(summaries, solver.SolveBlock(laplacian, b, &x, context));
  // The embedding is stored k x n; allocated only after the solve so it does
  // not add to the solve's peak footprint.
  DenseMatrix z(k, n);
  for (size_t r = 0; r < k; ++r) {
    double* z_row = z.mutable_row(r);
    for (size_t i = 0; i < n; ++i) z_row[i] = x(i, r);
  }

  const CgBatchStats cg_stats = SummarizeCgBatch(summaries);
  for (size_t r = 0; r < k; ++r) {
    if (options.require_convergence && !summaries[r].converged) {
      return Status::NumericalError(
          "ApproxCommuteEmbedding: CG did not converge on system " +
          std::to_string(r) + " (relative residual " +
          std::to_string(summaries[r].relative_residual) + ")");
    }
  }
  if (options.warm_start && cache != nullptr) cache->StoreEmbedding(z);
  // Incremental mode: persist the RHS block so the next window can update
  // it in O(churn * k) instead of rebuilding it.
  if (options.incremental && cache != nullptr) cache->StoreIncrementalRhs(b);

  return ApproxCommuteEmbedding(std::move(z), std::move(components), volume,
                                sentinel,
                                options.commute.use_cross_component_sentinel,
                                cg_stats);
}

Result<ApproxCommuteEmbedding> ApproxCommuteEmbedding::BuildIncremental(
    const WeightedGraph& graph, const EdgeDelta& delta,
    const ApproxCommuteOptions& options, CommuteSolverCache* cache) {
  CAD_TRACE_SPAN("approx_commute_build_incremental");
  const size_t n = graph.num_nodes();
  const size_t k = options.embedding_dim;
  if (k == 0) {
    return Status::InvalidArgument("embedding_dim must be positive");
  }
  if (!options.incremental || !options.warm_start) {
    return Status::InvalidArgument(
        "ApproxCommuteEmbedding::BuildIncremental requires "
        "options.incremental and options.warm_start");
  }
  if (cache == nullptr) {
    return Status::FailedPrecondition(
        "ApproxCommuteEmbedding::BuildIncremental: no cache to hold the "
        "incremental state");
  }
  DenseMatrix* rhs = cache->MutableIncrementalRhs(n, k);
  const DenseMatrix* previous = cache->PreviousEmbedding(k, n);
  if (rhs == nullptr || previous == nullptr) {
    return Status::FailedPrecondition(
        "ApproxCommuteEmbedding::BuildIncremental: cached incremental state "
        "missing or of the wrong shape (first window, node growth, or a "
        "k change); run a full build to seed it");
  }
  for (const ChangedEdge& change : delta.changes) {
    if (change.u >= n || change.v >= n) {
      return Status::FailedPrecondition(
          "ApproxCommuteEmbedding::BuildIncremental: delta references node " +
          std::to_string(std::max(change.u, change.v)) +
          " outside the snapshot (n = " + std::to_string(n) + ")");
    }
  }

  // Step 1: fold the delta into the cached RHS block. Each changed edge's
  // JL column is redrawn from its identity-keyed generator — the same draws
  // the full build would make — so only the sqrt-weight scale differs, and
  // two row updates per edge bring the block to the new snapshot's Y.
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  for (const ChangedEdge& change : delta.changes) {
    Rng rng(EdgeJlSeed(options.seed, change.u, change.v));
    const double scale = (std::sqrt(change.weight_after) -
                          std::sqrt(change.weight_before)) *
                         inv_sqrt_k;
    double* bu = rhs->mutable_row(change.u);
    double* bv = rhs->mutable_row(change.v);
    for (size_t r = 0; r < k; ++r) {
      const double q = rng.Rademacher() * scale;
      bu[r] += q;
      bv[r] -= q;
    }
  }

  const double volume = graph.Volume();
  const double sentinel = CrossComponentSentinel(volume, n, options.commute);
  ComponentLabeling components = ConnectedComponents(graph);
  const double epsilon =
      options.commute.regularization_scale * std::max(volume, 1.0);
  const CsrMatrix laplacian = graph.ToLaplacianCsr(epsilon);

  // Step 2: residual gate. One SpMM against the cached embedding gives
  // every column's exact residual under the *new* regularized Laplacian, so
  // reuse is decided on ground truth rather than on which nodes the delta
  // touched — columns that the churn barely perturbed are kept even when
  // their generator overlapped a changed edge, and epsilon drift (volume
  // changes move the regularizer) is accounted for automatically.
  DenseMatrix x0(n, k);
  for (size_t i = 0; i < n; ++i) {
    double* row = x0.mutable_row(i);
    for (size_t r = 0; r < k; ++r) row[r] = (*previous)(r, i);
  }
  DenseMatrix lz;
  laplacian.MultiplyBlock(x0, &lz);
  const double tol = std::max(options.incremental_tolerance, 0.0);
  std::vector<size_t> resolve;
  for (size_t r = 0; r < k; ++r) {
    double residual2 = 0.0;
    double norm2 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double y = (*rhs)(i, r);
      const double d = y - lz(i, r);
      residual2 += d * d;
      norm2 += y * y;
    }
    if (residual2 > tol * tol * norm2) resolve.push_back(r);
  }

  // Step 3: re-solve only the gated columns, warm-started from the cached
  // embedding; everything else is reused verbatim.
  std::vector<CgSummary> summaries;
  DenseMatrix z = *previous;
  if (!resolve.empty()) {
    const size_t s = resolve.size();
    DenseMatrix bs(n, s);
    DenseMatrix x0s(n, s);
    for (size_t i = 0; i < n; ++i) {
      const double* rhs_row = rhs->row(i);
      const double* x0_row = x0.row(i);
      double* bs_row = bs.mutable_row(i);
      double* x0s_row = x0s.mutable_row(i);
      for (size_t idx = 0; idx < s; ++idx) {
        bs_row[idx] = rhs_row[resolve[idx]];
        x0s_row[idx] = x0_row[resolve[idx]];
      }
    }
    CgSolveContext context;
    context.initial_guess = &x0s;
    if (options.cg.preconditioner == CgPreconditioner::kIncompleteCholesky) {
      CAD_ASSIGN_OR_RETURN(context.cached_factor, cache->FactorFor(laplacian));
    }
    const ConjugateGradientSolver solver(options.cg);
    DenseMatrix x;
    CAD_ASSIGN_OR_RETURN(summaries,
                         solver.SolveBlock(laplacian, bs, &x, context));
    for (size_t idx = 0; idx < s; ++idx) {
      double* z_row = z.mutable_row(resolve[idx]);
      for (size_t i = 0; i < n; ++i) z_row[i] = x(i, idx);
    }
    for (size_t idx = 0; idx < s; ++idx) {
      if (options.require_convergence && !summaries[idx].converged) {
        return Status::NumericalError(
            "ApproxCommuteEmbedding::BuildIncremental: CG did not converge "
            "on system " + std::to_string(resolve[idx]) +
            " (relative residual " +
            std::to_string(summaries[idx].relative_residual) + ")");
      }
    }
  }

  cache->StoreEmbedding(z);
  cache->RecordIncrementalBuild(resolve.size(), k);
  const CgBatchStats cg_stats = SummarizeCgBatch(summaries);
  return ApproxCommuteEmbedding(std::move(z), std::move(components), volume,
                                sentinel,
                                options.commute.use_cross_component_sentinel,
                                cg_stats);
}

double ApproxCommuteEmbedding::CommuteTime(NodeId u, NodeId v) const {
  CAD_DCHECK(u < num_nodes() && v < num_nodes());
  if (u == v) return 0.0;
  if (use_sentinel_ && !components_.SameComponent(u, v)) return sentinel_;
  // Without the sentinel, the embedding distance estimates exactly the
  // paper-faithful Eq. 3 value: V_G * (e_u - e_v)^T L+ (e_u - e_v), which
  // across components is V_G (l+_uu + l+_vv).
  const size_t k = embedding_.rows();
  double squared = 0.0;
  for (size_t r = 0; r < k; ++r) {
    const double* row = embedding_.row(r);
    const double diff = row[u] - row[v];
    squared += diff * diff;
  }
  // Cap at the sentinel so approximate within-component estimates can never
  // exceed the "infinite" cross-component stand-in.
  return std::min(volume_ * squared, sentinel_);
}

}  // namespace cad
