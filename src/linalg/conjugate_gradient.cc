#include "linalg/conjugate_gradient.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/obs.h"

#include "linalg/column_kernels.h"
#include "linalg/incomplete_cholesky.h"

namespace cad {

namespace {

/// Shared read-only preconditioner state, dispatched by kind so the
/// per-iteration passes carry no closure indirection.
struct BlockPreconditioner {
  CgPreconditioner kind = CgPreconditioner::kNone;
  std::vector<double> inv_diag;                    // kJacobi
  const IncompleteCholesky* borrowed = nullptr;    // kIncompleteCholesky
  std::optional<IncompleteCholesky> owned;

  const IncompleteCholesky* factor() const {
    return owned.has_value() ? &*owned : borrowed;
  }

  /// Jacobi and no preconditioning apply z = d_i * r_i row by row (d = 1.0
  /// without one: 1.0 * r is r bitwise), so the apply fuses into the sweep
  /// that writes r. IC(0) is a pair of triangular solves with their own
  /// row order and runs as its own pass.
  bool elementwise() const {
    return kind != CgPreconditioner::kIncompleteCholesky;
  }
  /// The per-row scale of an elementwise apply; nullptr means 1.0.
  const double* scale() const {
    return kind == CgPreconditioner::kJacobi ? inv_diag.data() : nullptr;
  }
};

Result<BlockPreconditioner> MakeBlockPreconditioner(
    const CsrMatrix& a, CgPreconditioner kind,
    const IncompleteCholesky* cached) {
  BlockPreconditioner precond;
  precond.kind = kind;
  switch (kind) {
    case CgPreconditioner::kNone:
      return precond;
    case CgPreconditioner::kJacobi:
      // Zero diagonal entries (isolated Laplacian nodes) fall back to
      // identity scaling.
      precond.inv_diag = a.Diagonal();
      for (double& d : precond.inv_diag) d = (d > 0.0) ? 1.0 / d : 1.0;
      return precond;
    case CgPreconditioner::kIncompleteCholesky: {
      if (cached != nullptr) {
        precond.borrowed = cached;
        return precond;
      }
      Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
      if (!factor.ok()) return factor.status();
      precond.owned.emplace(std::move(factor).ValueOrDie());
      return precond;
    }
  }
  return Status::Internal("unknown preconditioner kind");
}

/// Per-slot scalars of one column group, kept in the same slot order as
/// the group's packed work blocks.
using SlotArray = std::array<double, kMaxKernelWidth>;

/// One column group's work blocks. R, Z, P and AP are n x k (k the group's
/// width); X is the caller's solution block, whose group columns start at
/// `x` with row stride `x_stride`. Slot s of every block holds local column
/// `column[s]`, and the still-iterating columns occupy slots [0, w).
struct PackedGroup {
  size_t n = 0;
  size_t k = 0;
  double* x = nullptr;
  size_t x_stride = 0;
  DenseMatrix r, z, p, ap;
  std::array<uint32_t, kMaxKernelWidth> column{};
  SlotArray b_norm{}, target{}, rz{}, rr{}, rz_next{};

  /// Swaps slots s and t in every per-slot scalar.
  void SwapSlots(size_t s, size_t t) {
    std::swap(column[s], column[t]);
    std::swap(b_norm[s], b_norm[t]);
    std::swap(target[s], target[t]);
    std::swap(rz[s], rz[t]);
    std::swap(rr[s], rr[t]);
    std::swap(rz_next[s], rz_next[t]);
  }
};

/// Slot moves gathered by one retirement pass: (s, t) retires the column in
/// slot s by swapping it with the last active slot t.
struct SlotMoves {
  std::array<std::pair<uint32_t, uint32_t>, kMaxKernelWidth> moves;
  size_t count = 0;
};

/// Retires slot s of the w active slots: swaps it with the last active
/// slot and records the move for ApplySlotMoves (nothing to move when s is
/// that slot).
void RetireSlot(size_t s, size_t* w, PackedGroup* g, SlotMoves* moves) {
  --*w;
  if (s == *w) return;
  g->SwapSlots(s, *w);
  moves->moves[moves->count++] = {static_cast<uint32_t>(s),
                                  static_cast<uint32_t>(*w)};
}

/// Applies `moves`, in order, to every row of the group's blocks in one
/// pass: X swaps (the retired column's solution must survive in slot t),
/// while R, Z and P only copy slot t into slot s — a retired column's
/// residual and directions are never read again.
void ApplySlotMoves(const SlotMoves& moves, PackedGroup* g) {
  for (size_t i = 0; i < g->n; ++i) {
    double* xi = g->x + i * g->x_stride;
    double* ri = g->r.mutable_row(i);
    double* zi = g->z.mutable_row(i);
    double* pi = g->p.mutable_row(i);
    for (size_t m = 0; m < moves.count; ++m) {
      const auto [s, t] = moves.moves[m];
      std::swap(xi[s], xi[t]);
      ri[s] = ri[t];
      zi[s] = zi[t];
      pi[s] = pi[t];
    }
  }
}

/// Writes every slot's solution back to its own column of X.
void UnpackSolutions(const PackedGroup& g) {
  double row[kMaxKernelWidth] = {};
  for (size_t i = 0; i < g.n; ++i) {
    double* xi = g.x + i * g.x_stride;
    for (size_t s = 0; s < g.k; ++s) row[g.column[s]] = xi[s];
    std::copy(row, row + g.k, xi);
  }
}

/// Z = M^{-1} R (elementwise kinds only), P = Z and rz = r^T z on the
/// first W slots, one pass.
template <size_t W, bool kElementwise>
void StartDirections(const double* scale, PackedGroup* g) {
  double rz[W] = {0.0};
  for (size_t i = 0; i < g->n; ++i) {
    const double d = scale != nullptr ? scale[i] : 1.0;
    const double* ri = g->r.row(i);
    double* zi = g->z.mutable_row(i);
    double* pi = g->p.mutable_row(i);
    for (size_t s = 0; s < W; ++s) {
      if constexpr (kElementwise) zi[s] = d * ri[s];
      pi[s] = zi[s];
      rz[s] += ri[s] * zi[s];
    }
  }
  std::copy(rz, rz + W, g->rz.begin());
}

/// X += alpha P and R -= alpha AP with the ||r||^2 reduction, plus (for
/// the elementwise kinds) Z = M^{-1} R and the r^T z reduction, on the
/// first W slots in one pass. Each expression is the scalar recurrence's,
/// and every reduction sums in ascending row order, as Dot does. Columns
/// that converge on this residual get a Z they never use.
template <size_t W, bool kElementwise>
void UpdateIterates(const SlotArray& alphas, const double* scale,
                    PackedGroup* g) {
  double alpha[W] = {};
  std::copy(alphas.begin(), alphas.begin() + W, alpha);
  double rr[W] = {0.0};
  double rz[W] = {0.0};
  for (size_t i = 0; i < g->n; ++i) {
    double* xi = g->x + i * g->x_stride;
    double* ri = g->r.mutable_row(i);
    const double* pi = g->p.row(i);
    const double* api = g->ap.row(i);
    const double d = scale != nullptr ? scale[i] : 1.0;
    double* zi = g->z.mutable_row(i);
    for (size_t s = 0; s < W; ++s) {
      xi[s] += alpha[s] * pi[s];
      const double rv = ri[s] - alpha[s] * api[s];
      ri[s] = rv;
      rr[s] += rv * rv;
      if constexpr (kElementwise) {
        const double zv = d * rv;
        zi[s] = zv;
        rz[s] += rv * zv;
      }
    }
  }
  std::copy(rr, rr + W, g->rr.begin());
  if constexpr (kElementwise) std::copy(rz, rz + W, g->rz_next.begin());
}

/// P = Z + beta P on the first W slots.
template <size_t W>
void UpdateDirections(const SlotArray& betas, PackedGroup* g) {
  double beta[W] = {};
  std::copy(betas.begin(), betas.begin() + W, beta);
  for (size_t i = 0; i < g->n; ++i) {
    const double* zi = g->z.row(i);
    double* pi = g->p.mutable_row(i);
    for (size_t s = 0; s < W; ++s) pi[s] = zi[s] + beta[s] * pi[s];
  }
}

/// The lockstep CG kernel on one column group: advances columns [begin,
/// end) of B through one shared SpMM/preconditioner sweep per iteration,
/// with per-column scalars. Still-iterating columns are kept packed in the
/// leading slots [0, w) of the work blocks: a column that converges is
/// swapped to the back, and every per-iteration pass runs at the current w
/// through compile-time-width kernels, so converged columns cost nothing.
/// Every floating-point operation touching a column happens in exactly the
/// order a scalar PCG on that column alone would execute it — a slot is
/// only where the column's values live — so a column's solution and
/// iteration count do not depend on which other columns share the group.
/// B and X0 are read in place through their row stride, and the solution
/// is written into the same columns of *x, which must be n x B.cols() and
/// zero in those columns. Returns the group's summaries in column order.
Result<std::vector<CgSummary>> LockstepSolve(const CsrMatrix& a,
                                             const DenseMatrix& b,
                                             size_t begin, size_t end,
                                             const BlockPreconditioner& precond,
                                             const CgOptions& options,
                                             const DenseMatrix* x0,
                                             DenseMatrix* x) {
  CAD_TRACE_SPAN("pcg_column_group");
  PackedGroup g;
  g.n = a.rows();
  g.k = end - begin;  // the group's width; columns below are local
  CAD_DCHECK(g.k >= 1 && g.k <= kMaxKernelWidth);
  const size_t n = g.n;
  const size_t k = g.k;
  g.x = x->mutable_data().data() + begin;
  g.x_stride = x->cols();
  std::vector<CgSummary> summaries(k);

  // R starts as the group's columns of B. Per-column ||b|| is accumulated
  // in the same ascending-i order as Norm2.
  g.r = DenseMatrix(n, k);
  SlotArray accum{};
  for (size_t i = 0; i < n; ++i) {
    const double* bi = b.row(i) + begin;
    double* ri = g.r.mutable_row(i);
    for (size_t c = 0; c < k; ++c) {
      ri[c] = bi[c];
      accum[c] += bi[c] * bi[c];
    }
  }
  for (size_t c = 0; c < k; ++c) {
    g.column[c] = static_cast<uint32_t>(c);
    g.b_norm[c] = std::sqrt(accum[c]);
    g.target[c] = options.tolerance * g.b_norm[c];
  }

  if (x0 != nullptr) {
    // X starts at the guess. Zero-rhs columns are not copied: they keep the
    // b = 0 contract (x = 0) regardless of guess.
    for (size_t i = 0; i < n; ++i) {
      const double* gi = x0->row(i) + begin;
      double* xi = g.x + i * g.x_stride;
      for (size_t c = 0; c < k; ++c) {
        if (g.b_norm[c] != 0.0) xi[c] = gi[c];
      }
    }
    a.MultiplyAccumulateColumns(-1.0, *x0, begin, &g.r);  // R = B - A X0
    accum.fill(0.0);
    DispatchWidth(k, [&](auto w) {
      AccumulateColumnDots<decltype(w)::value>(n, g.r.data().data(), k,
                                               g.r.data().data(), k,
                                               accum.data());
    });
  }
  // Retire the columns that start converged: zero right-hand sides (x stays
  // zero) and guesses that already meet the target.
  size_t w = k;
  SlotMoves moves;
  for (size_t s = 0; s < w;) {
    CgSummary& summary = summaries[g.column[s]];
    bool done = g.b_norm[s] == 0.0;
    if (!done && x0 != nullptr) {
      const double r0_norm = std::sqrt(accum[g.column[s]]);
      summary.relative_residual = r0_norm / g.b_norm[s];
      done = r0_norm <= g.target[s];
    }
    if (!done) {
      ++s;
      continue;
    }
    summary.converged = true;
    RetireSlot(s, &w, &g, &moves);
  }
  bool packed = moves.count > 0;
  g.z = DenseMatrix(n, k);
  g.p = DenseMatrix(n, k);
  if (packed) ApplySlotMoves(moves, &g);

  const double* scale = precond.scale();
  if (w > 0) {
    if (!precond.elementwise()) {
      precond.factor()->ApplyLeadingColumns(g.r, w, &g.z);
    }
    DispatchWidth(w, [&](auto width) {
      constexpr size_t W = decltype(width)::value;
      if (precond.elementwise()) {
        StartDirections<W, true>(scale, &g);
      } else {
        StartDirections<W, false>(scale, &g);
      }
    });
  }
  g.ap = DenseMatrix(n, k);
  SlotArray scalars{};

  const size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

  // cad-lint: hot-path begin (per-iteration loop: no buffer growth allowed)
  for (size_t iter = 0; iter < max_iters && w > 0; ++iter) {
    // Overwrite form of AP = A P: bitwise equal to zero-filling AP and
    // accumulating, without the fill pass.
    a.MultiplyOverwriteLeading(1.0, g.p, w, &g.ap);

    std::fill(scalars.begin(), scalars.begin() + w, 0.0);
    DispatchWidth(w, [&](auto width) {
      AccumulateColumnDots<decltype(width)::value>(
          n, g.p.data().data(), k, g.ap.data().data(), k, scalars.data());
    });
    // A breakdown reports the lowest column's p^T A p, as a column-ordered
    // scan would.
    size_t breakdown = k;
    for (size_t s = 0; s < w; ++s) {
      if (scalars[s] <= 0.0 &&
          (breakdown == k || g.column[s] < g.column[breakdown])) {
        breakdown = s;
      }
    }
    if (breakdown < k) {
      return Status::NumericalError(
          "CG: non-positive curvature encountered (p^T A p = " +
          std::to_string(scalars[breakdown]) +
          "); matrix not positive semidefinite?");
    }
    // scalars now holds p^T A p; turn it into alpha = rz / pap per slot.
    for (size_t s = 0; s < w; ++s) scalars[s] = g.rz[s] / scalars[s];
    DispatchWidth(w, [&](auto width) {
      constexpr size_t W = decltype(width)::value;
      if (precond.elementwise()) {
        UpdateIterates<W, true>(scalars, scale, &g);
      } else {
        UpdateIterates<W, false>(scalars, scale, &g);
      }
    });

    // Retire the columns this residual converges, swapping each with the
    // last active slot, then move the blocks' slots in one pass.
    moves.count = 0;
    for (size_t s = 0; s < w;) {
      const double r_norm = std::sqrt(g.rr[s]);
      CgSummary& summary = summaries[g.column[s]];
      summary.iterations = iter + 1;
      summary.relative_residual = r_norm / g.b_norm[s];
      if (r_norm > g.target[s]) {
        ++s;
        continue;
      }
      summary.converged = true;
      RetireSlot(s, &w, &g, &moves);
    }
    if (moves.count > 0) {
      packed = true;
      ApplySlotMoves(moves, &g);
    }
    if (w == 0) break;

    if (!precond.elementwise()) {
      precond.factor()->ApplyLeadingColumns(g.r, w, &g.z);
      std::fill(g.rz_next.begin(), g.rz_next.begin() + w, 0.0);
      DispatchWidth(w, [&](auto width) {
        AccumulateColumnDots<decltype(width)::value>(
            n, g.r.data().data(), k, g.z.data().data(), k,
            g.rz_next.data());
      });
    }
    for (size_t s = 0; s < w; ++s) {
      scalars[s] = g.rz_next[s] / g.rz[s];  // beta
      g.rz[s] = g.rz_next[s];
    }
    DispatchWidth(w, [&](auto width) {
      UpdateDirections<decltype(width)::value>(scalars, &g);
    });
  }
  // cad-lint: hot-path end
  // Columns still active at the iteration cap keep converged == false.
  if (packed) UnpackSolutions(g);
  return summaries;
}

/// Records the per-system outcome counters shared by Solve and SolveBlock.
/// Gauges (last-write-wins) are set only from deterministic single-threaded
/// points.
void RecordSolveMetrics(const CgSummary& summary) {
  CAD_METRIC_INC("pcg.solves");
  CAD_METRIC_ADD("pcg.iterations", summary.iterations);
  if (!summary.converged) CAD_METRIC_INC("pcg.nonconverged");
}

Status ValidateSystem(const CsrMatrix& a, size_t rhs_size) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CG: matrix must be square");
  }
  if (rhs_size != a.rows()) {
    return Status::InvalidArgument("CG: rhs size mismatch");
  }
  return Status::OK();
}

Status ValidateContext(const CgSolveContext& context, size_t rows,
                       size_t cols) {
  if (context.initial_guess != nullptr &&
      (context.initial_guess->rows() != rows ||
       context.initial_guess->cols() != cols)) {
    return Status::InvalidArgument(
        "CG: initial-guess block must be " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", got " +
        std::to_string(context.initial_guess->rows()) + "x" +
        std::to_string(context.initial_guess->cols()));
  }
  if (context.cached_factor != nullptr &&
      context.cached_factor->dimension() != rows) {
    return Status::InvalidArgument("CG: cached IC(0) factor dimension " +
                                   std::to_string(
                                       context.cached_factor->dimension()) +
                                   " does not match system size " +
                                   std::to_string(rows));
  }
  return Status::OK();
}

Result<BlockPreconditioner> TimedPreconditionerSetup(
    const CsrMatrix& a, CgPreconditioner kind,
    const IncompleteCholesky* cached) {
  CAD_TRACE_SPAN("pcg_precond_setup");
  const Timer setup_timer;
  Result<BlockPreconditioner> precond =
      MakeBlockPreconditioner(a, kind, cached);
  CAD_METRIC_TIME_NS("pcg.precond_setup", setup_timer.ElapsedNanos());
  return precond;
}

/// Solve's body: one right-hand side through the k = 1 lockstep kernel.
Result<CgSummary> SolveVector(const CgOptions& options, const CsrMatrix& a,
                              const std::vector<double>& b,
                              const std::vector<double>* x0,
                              std::vector<double>* x) {
  CAD_TRACE_SPAN("pcg_solve");
  CAD_RETURN_NOT_OK(ValidateSystem(a, b.size()));
  if (x0 != nullptr && x0->size() != b.size()) {
    return Status::InvalidArgument("CG: initial guess size mismatch");
  }
  CAD_DCHECK_OK(a.CheckValid(CsrValidateOptions{.require_symmetric = true}));
  BlockPreconditioner precond;
  CAD_ASSIGN_OR_RETURN(
      precond, TimedPreconditionerSetup(a, options.preconditioner, nullptr));
  const size_t n = b.size();
  const DenseMatrix b_block(n, 1, b);
  DenseMatrix x0_block;
  if (x0 != nullptr) x0_block = DenseMatrix(n, 1, *x0);
  DenseMatrix x_block(n, 1);
  std::vector<CgSummary> summaries;
  CAD_ASSIGN_OR_RETURN(
      summaries, LockstepSolve(a, b_block, 0, 1, precond, options,
                               x0 != nullptr ? &x0_block : nullptr, &x_block));
  *x = std::move(x_block.mutable_data());
  RecordSolveMetrics(summaries[0]);
  CAD_METRIC_SET("pcg.last_relative_residual", summaries[0].relative_residual);
  return summaries[0];
}

}  // namespace

CgBatchStats SummarizeCgBatch(const std::vector<CgSummary>& summaries) {
  CgBatchStats stats;
  stats.num_systems = summaries.size();
  for (size_t i = 0; i < summaries.size(); ++i) {
    const CgSummary& summary = summaries[i];
    if (summary.converged) ++stats.num_converged;
    if (i == 0 || summary.iterations < stats.min_iterations) {
      stats.min_iterations = summary.iterations;
    }
    stats.max_iterations = std::max(stats.max_iterations, summary.iterations);
    stats.total_iterations += summary.iterations;
    stats.max_relative_residual =
        std::max(stats.max_relative_residual, summary.relative_residual);
  }
  return stats;
}

const char* CgPreconditionerToString(CgPreconditioner preconditioner) {
  switch (preconditioner) {
    case CgPreconditioner::kNone:
      return "none";
    case CgPreconditioner::kJacobi:
      return "jacobi";
    case CgPreconditioner::kIncompleteCholesky:
      return "ic0";
  }
  return "unknown";
}

Result<CgSummary> ConjugateGradientSolver::Solve(const CsrMatrix& a,
                                                 const std::vector<double>& b,
                                                 std::vector<double>* x) const {
  return SolveVector(options_, a, b, nullptr, x);
}

Result<CgSummary> ConjugateGradientSolver::Solve(const CsrMatrix& a,
                                                 const std::vector<double>& b,
                                                 const std::vector<double>& x0,
                                                 std::vector<double>* x) const {
  return SolveVector(options_, a, b, &x0, x);
}

Result<std::vector<CgSummary>> ConjugateGradientSolver::SolveBlock(
    const CsrMatrix& a, const DenseMatrix& b, DenseMatrix* x,
    const CgSolveContext& context) const {
  CAD_TRACE_SPAN("pcg_solve_block");
  CAD_RETURN_NOT_OK(ValidateSystem(a, b.rows()));
  CAD_RETURN_NOT_OK(ValidateContext(context, b.rows(), b.cols()));
  CAD_DCHECK_OK(a.CheckValid(CsrValidateOptions{.require_symmetric = true}));
  BlockPreconditioner precond;
  CAD_ASSIGN_OR_RETURN(precond,
                       TimedPreconditionerSetup(a, options_.preconditioner,
                                                context.cached_factor));

  const size_t n = a.rows();
  const size_t k = b.cols();
  // Columns are split into contiguous groups, at least one per thread and
  // none wider than kMaxKernelWidth, each advanced in lockstep by one task
  // in the caller's blocks. Grouping only regroups which columns share a sweep; it
  // never changes any column's arithmetic, so solutions do not depend on
  // the thread count. The tasks are indexed by column, not group, so
  // ParallelFor's parallel.* counters are the same at any thread count (the
  // metrics determinism contract): a group runs in the task of its first
  // column and every other task is empty.
  const size_t num_groups =
      std::max({std::min(options_.num_threads, k),
                (k + kMaxKernelWidth - 1) / kMaxKernelWidth, size_t{1}});
  std::vector<size_t> group_begin(num_groups + 1);
  for (size_t group = 0; group <= num_groups; ++group) {
    group_begin[group] = group * k / num_groups;
  }
  std::vector<CgSummary> summaries(k);
  std::vector<Status> statuses(num_groups);
  *x = DenseMatrix(n, k);
  ParallelFor(k, options_.num_threads, [&](size_t column) {
    const size_t group = static_cast<size_t>(
        std::upper_bound(group_begin.begin(), group_begin.end(), column) -
        group_begin.begin() - 1);
    if (group_begin[group] != column) return;
    Result<std::vector<CgSummary>> group_summaries =
        LockstepSolve(a, b, group_begin[group], group_begin[group + 1],
                      precond, options_, context.initial_guess, x);
    if (!group_summaries.ok()) {
      statuses[group] = group_summaries.status();
      return;
    }
    std::copy(group_summaries->begin(), group_summaries->end(),
              summaries.begin() + static_cast<long>(column));
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  // Per-system and batch metrics are recorded post-join, in column order, so
  // the export is identical at any thread count.
  for (const CgSummary& summary : summaries) {
    RecordSolveMetrics(summary);
    CAD_METRIC_OBSERVE("pcg.iterations_per_rhs", summary.iterations);
  }
  CAD_METRIC_INC("pcg.batches");
  CAD_METRIC_SET("pcg.last_batch_max_relative_residual",
                 SummarizeCgBatch(summaries).max_relative_residual);
  return summaries;
}

}  // namespace cad
