#include "linalg/conjugate_gradient.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/obs.h"

#include "linalg/incomplete_cholesky.h"

namespace cad {

namespace {

/// Shared read-only preconditioner state, dispatched by kind so the
/// per-iteration block apply carries no closure indirection.
struct BlockPreconditioner {
  CgPreconditioner kind = CgPreconditioner::kNone;
  std::vector<double> inv_diag;                    // kJacobi
  const IncompleteCholesky* borrowed = nullptr;    // kIncompleteCholesky
  std::optional<IncompleteCholesky> owned;

  const IncompleteCholesky* factor() const {
    return owned.has_value() ? &*owned : borrowed;
  }

  /// Z = M^{-1} R, column by column.
  void Apply(const DenseMatrix& r, DenseMatrix* z) const {
    const size_t n = r.rows();
    const size_t k = r.cols();
    if (z->rows() != n || z->cols() != k) *z = DenseMatrix(n, k);
    switch (kind) {
      case CgPreconditioner::kNone:
        *z = r;
        return;
      case CgPreconditioner::kJacobi:
        for (size_t i = 0; i < n; ++i) {
          const double d = inv_diag[i];
          const double* ri = r.row(i);
          double* zi = z->mutable_row(i);
          for (size_t c = 0; c < k; ++c) zi[c] = d * ri[c];
        }
        return;
      case CgPreconditioner::kIncompleteCholesky:
        factor()->ApplyBlock(r, z);
        return;
    }
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

/// The lockstep CG kernel: advances all columns of B through one shared
/// SpMM/preconditioner sweep per iteration, with per-column scalars and an
/// active mask that freezes converged columns. Every floating-point
/// operation touching column c happens in exactly the order a scalar PCG on
/// column c alone would execute it, so a column's solution and iteration
/// count do not depend on which other columns share the block. Writes the
/// n x k solution into *x (resized here).
Result<std::vector<CgSummary>> LockstepSolve(const CsrMatrix& a,
                                             const DenseMatrix& b,
                                             const BlockPreconditioner& precond,
                                             const CgOptions& options,
                                             const DenseMatrix* x0,
                                             DenseMatrix* x) {
  const size_t n = a.rows();
  const size_t k = b.cols();
  std::vector<CgSummary> summaries(k);
  *x = DenseMatrix(n, k);

  // Per-column ||b||, accumulated in the same ascending-i order as Norm2.
  std::vector<double> accum(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* bi = b.row(i);
    for (size_t c = 0; c < k; ++c) accum[c] += bi[c] * bi[c];
  }
  std::vector<double> b_norm(k, 0.0);
  std::vector<double> target(k, 0.0);
  std::vector<uint32_t> active;  // still-iterating columns, ascending
  active.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    b_norm[c] = std::sqrt(accum[c]);
    if (b_norm[c] == 0.0) {
      summaries[c].converged = true;  // x column stays zero
    } else {
      target[c] = options.tolerance * b_norm[c];
      active.push_back(static_cast<uint32_t>(c));
    }
  }

  DenseMatrix r = b;
  if (x0 != nullptr && !active.empty()) {
    *x = *x0;
    // Zero-rhs columns keep the b = 0 contract (x = 0) regardless of guess.
    for (size_t c = 0; c < k; ++c) {
      if (b_norm[c] != 0.0) continue;
      for (size_t i = 0; i < n; ++i) (*x)(i, c) = 0.0;
    }
    a.MultiplyAccumulateBlock(-1.0, *x0, &r);  // R = B - A X0
    std::fill(accum.begin(), accum.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* ri = r.row(i);
      for (const uint32_t c : active) accum[c] += ri[c] * ri[c];
    }
    size_t w = 0;
    for (const uint32_t c : active) {
      const double r0_norm = std::sqrt(accum[c]);
      summaries[c].relative_residual = r0_norm / b_norm[c];
      if (r0_norm <= target[c]) {
        summaries[c].converged = true;  // guess already meets the target
      } else {
        active[w++] = c;
      }
    }
    active.resize(w);
  }
  if (active.empty()) return summaries;

  DenseMatrix z(n, k);
  precond.Apply(r, &z);
  DenseMatrix p = z;
  DenseMatrix ap(n, k);
  std::vector<double> rz(k, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* ri = r.row(i);
    const double* zi = z.row(i);
    for (const uint32_t c : active) rz[c] += ri[c] * zi[c];
  }
  std::vector<double> scalars(k, 0.0);

  const size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

  // cad-lint: hot-path begin (per-iteration loop: no buffer growth allowed)
  for (size_t iter = 0; iter < max_iters && !active.empty(); ++iter) {
    // Overwrite form of AP = A P: bitwise equal to zero-filling AP and
    // accumulating, without the fill pass over n*k doubles.
    a.MultiplyOverwriteBlock(1.0, p, &ap);

    std::fill(scalars.begin(), scalars.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* pi = p.row(i);
      const double* api = ap.row(i);
      for (const uint32_t c : active) scalars[c] += pi[c] * api[c];
    }
    for (const uint32_t c : active) {
      if (scalars[c] <= 0.0) {
        return Status::NumericalError(
            "CG: non-positive curvature encountered (p^T A p = " +
            std::to_string(scalars[c]) +
            "); matrix not positive semidefinite?");
      }
    }
    // scalars now holds p^T A p; turn it into alpha = rz / pap per column.
    for (const uint32_t c : active) scalars[c] = rz[c] / scalars[c];
    // X/R update fused with the ||r|| reduction in one sweep. The
    // reduction accumulates each column in the ascending-row sequence Norm2
    // uses, so convergence decisions match the scalar recurrence.
    std::fill(accum.begin(), accum.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      double* xi = x->mutable_row(i);
      double* ri = r.mutable_row(i);
      const double* pi = p.row(i);
      const double* api = ap.row(i);
      for (const uint32_t c : active) {
        const double alpha = scalars[c];
        xi[c] += alpha * pi[c];
        const double rv = ri[c] - alpha * api[c];
        ri[c] = rv;
        accum[c] += rv * rv;
      }
    }
    size_t w = 0;
    for (const uint32_t c : active) {
      const double r_norm = std::sqrt(accum[c]);
      summaries[c].iterations = iter + 1;
      summaries[c].relative_residual = r_norm / b_norm[c];
      if (r_norm <= target[c]) {
        summaries[c].converged = true;
      } else {
        active[w++] = c;
      }
    }
    active.resize(w);  // shrink only, never reallocates  // cad-lint: allow(hot-alloc)
    if (active.empty()) break;

    std::fill(scalars.begin(), scalars.end(), 0.0);
    if (precond.kind == CgPreconditioner::kIncompleteCholesky) {
      // IC(0) apply is a triangular solve with its own row ordering; keep
      // the generic two-pass form.
      precond.Apply(r, &z);
      for (size_t i = 0; i < n; ++i) {
        const double* ri = r.row(i);
        const double* zi = z.row(i);
        for (const uint32_t c : active) scalars[c] += ri[c] * zi[c];
      }
    } else {
      // Jacobi/identity applies are elementwise, so the apply fuses with
      // the r^T z reduction: z rows are written with the exact expressions
      // BlockPreconditioner::Apply uses (z = r, or z = inv_diag * r). Only
      // active columns of z are refreshed; frozen columns are never read
      // again.
      const bool jacobi = precond.kind == CgPreconditioner::kJacobi;
      for (size_t i = 0; i < n; ++i) {
        const double d = jacobi ? precond.inv_diag[i] : 1.0;
        const double* ri = r.row(i);
        double* zi = z.mutable_row(i);
        for (const uint32_t c : active) {
          const double zv = d * ri[c];
          zi[c] = zv;
          scalars[c] += ri[c] * zv;
        }
      }
    }
    for (const uint32_t c : active) {
      const double rz_next = scalars[c];
      const double beta = rz_next / rz[c];
      rz[c] = rz_next;
      scalars[c] = beta;
    }
    for (size_t i = 0; i < n; ++i) {
      double* pi = p.mutable_row(i);
      const double* zi = z.row(i);
      for (const uint32_t c : active) pi[c] = zi[c] + scalars[c] * pi[c];
    }
  }
  // cad-lint: hot-path end
  // Iteration cap reached: converged iff the last residual meets the target.
  for (const uint32_t c : active) {
    summaries[c].converged =
        summaries[c].relative_residual <= options.tolerance;
  }
  return summaries;
}

/// Columns [begin, end) of `m` as a m.rows() x (end - begin) block.
DenseMatrix CopyColumns(const DenseMatrix& m, size_t begin, size_t end) {
  DenseMatrix out(m.rows(), end - begin);
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.row(i) + begin;
    std::copy(src, src + (end - begin), out.mutable_row(i));
  }
  return out;
}

/// LockstepSolve on columns [begin, end) of B (and of X0, when given),
/// through copies of those columns; writes the solutions into the same
/// columns of *x, which must already be n x k.
Result<std::vector<CgSummary>> SolveColumnRange(
    const CsrMatrix& a, const DenseMatrix& b,
    const BlockPreconditioner& precond, const CgOptions& options,
    const DenseMatrix* x0, size_t begin, size_t end, DenseMatrix* x) {
  CAD_TRACE_SPAN("pcg_block_chunk");
  const DenseMatrix chunk_b = CopyColumns(b, begin, end);
  DenseMatrix chunk_x0;
  if (x0 != nullptr) chunk_x0 = CopyColumns(*x0, begin, end);
  DenseMatrix chunk_x;
  Result<std::vector<CgSummary>> summaries =
      LockstepSolve(a, chunk_b, precond, options,
                    x0 != nullptr ? &chunk_x0 : nullptr, &chunk_x);
  if (!summaries.ok()) return summaries;
  for (size_t i = 0; i < x->rows(); ++i) {
    const double* src = chunk_x.row(i);
    std::copy(src, src + (end - begin), x->mutable_row(i) + begin);
  }
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
  DenseMatrix x_block;
  std::vector<CgSummary> summaries;
  CAD_ASSIGN_OR_RETURN(
      summaries, LockstepSolve(a, b_block, precond, options,
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
  // Columns are split into one contiguous chunk per thread, each advanced
  // in lockstep by one task. Chunking only regroups which columns share a
  // sweep; it never changes any column's arithmetic, so solutions do not
  // depend on the thread count. A single chunk solves in the caller's
  // blocks with no copies. The tasks are indexed by column, not chunk, so
  // ParallelFor's parallel.* counters are the same at any thread count (the
  // metrics determinism contract): a chunk runs in the task of its first
  // column and every other task is empty.
  const size_t num_chunks =
      std::max<size_t>(std::min(options_.num_threads, k), 1);
  std::vector<size_t> chunk_begin(num_chunks + 1);
  for (size_t chunk = 0; chunk <= num_chunks; ++chunk) {
    chunk_begin[chunk] = chunk * k / num_chunks;
  }
  std::vector<CgSummary> summaries(k);
  std::vector<Status> statuses(num_chunks);
  if (num_chunks > 1 || k == 0) *x = DenseMatrix(n, k);
  ParallelFor(k, options_.num_threads, [&](size_t column) {
    const size_t chunk = static_cast<size_t>(
        std::upper_bound(chunk_begin.begin(), chunk_begin.end(), column) -
        chunk_begin.begin() - 1);
    if (chunk_begin[chunk] != column) return;
    Result<std::vector<CgSummary>> chunk_summaries =
        num_chunks == 1
            ? LockstepSolve(a, b, precond, options_, context.initial_guess, x)
            : SolveColumnRange(a, b, precond, options_, context.initial_guess,
                               chunk_begin[chunk], chunk_begin[chunk + 1], x);
    if (!chunk_summaries.ok()) {
      statuses[chunk] = chunk_summaries.status();
      return;
    }
    std::copy(chunk_summaries->begin(), chunk_summaries->end(),
              summaries.begin() + static_cast<long>(chunk_begin[chunk]));
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
