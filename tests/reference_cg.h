#ifndef CAD_TESTS_REFERENCE_CG_H_
#define CAD_TESTS_REFERENCE_CG_H_

// Reference scalar preconditioned conjugate gradient for the solver tests.
//
// One right-hand side at a time, written as the textbook recurrence on
// std::vector with the vector_ops kernels — the formulation the lockstep
// block engine (ConjugateGradientSolver::SolveBlock) must reproduce bit for
// bit on every column: same solution, same residual, same iteration count.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace cad {
namespace testing_reference {

/// z = M^{-1} r for `kind`. `factor` must be non-null for IC(0).
inline void ApplyPreconditioner(const CsrMatrix& a, CgPreconditioner kind,
                                const IncompleteCholesky* factor,
                                const std::vector<double>& r,
                                std::vector<double>* z) {
  switch (kind) {
    case CgPreconditioner::kNone:
      *z = r;
      return;
    case CgPreconditioner::kJacobi: {
      // Zero diagonal entries (isolated Laplacian nodes) scale by 1.
      const std::vector<double> diag = a.Diagonal();
      z->resize(r.size());
      for (size_t i = 0; i < r.size(); ++i) {
        const double inv = diag[i] > 0.0 ? 1.0 / diag[i] : 1.0;
        (*z)[i] = inv * r[i];
      }
      return;
    }
    case CgPreconditioner::kIncompleteCholesky:
      *z = factor->Apply(r);
      return;
  }
}

/// Solves A x = b from `x0` (nullptr = the zero vector) with scalar PCG.
[[nodiscard]] inline Result<CgSummary> ReferencePcg(const CsrMatrix& a,
                                      const std::vector<double>& b,
                                      const CgOptions& options,
                                      const IncompleteCholesky* factor,
                                      const std::vector<double>* x0,
                                      std::vector<double>* x) {
  const size_t n = a.rows();
  const double b_norm = Norm2(b);
  CgSummary summary;
  if (b_norm == 0.0) {
    x->assign(n, 0.0);
    summary.converged = true;
    return summary;
  }
  const double target = options.tolerance * b_norm;
  std::vector<double> r = b;
  if (x0 != nullptr) {
    *x = *x0;
    a.MultiplyAccumulate(-1.0, *x, &r);
    const double r0_norm = Norm2(r);
    summary.relative_residual = r0_norm / b_norm;
    if (r0_norm <= target) {
      summary.converged = true;
      return summary;
    }
  } else {
    x->assign(n, 0.0);
  }

  std::vector<double> z;
  ApplyPreconditioner(a, options.preconditioner, factor, r, &z);
  std::vector<double> p = z;
  std::vector<double> ap(n);
  double rz = Dot(r, z);
  const size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
  for (size_t iter = 0; iter < max_iters; ++iter) {
    ap.assign(n, 0.0);
    a.MultiplyAccumulate(1.0, p, &ap);
    const double pap = Dot(p, ap);
    if (pap <= 0.0) {
      return Status::NumericalError("reference CG: non-positive curvature " +
                                    std::to_string(pap));
    }
    const double alpha = rz / pap;
    Axpy(alpha, p, x);
    Axpy(-alpha, ap, &r);
    const double r_norm = Norm2(r);
    summary.iterations = iter + 1;
    summary.relative_residual = r_norm / b_norm;
    if (r_norm <= target) {
      summary.converged = true;
      return summary;
    }
    ApplyPreconditioner(a, options.preconditioner, factor, r, &z);
    const double rz_next = Dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return summary;  // iteration cap: not converged
}

/// Column c of `m`.
inline std::vector<double> Column(const DenseMatrix& m, size_t c) {
  std::vector<double> column(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) column[i] = m(i, c);
  return column;
}

/// Solves every column of `b` with ReferencePcg, seeding column c from
/// column c of `x0` when given. IC(0) uses `factor` when non-null and
/// otherwise factors `a` once. Writes the solutions as the columns of *x.
[[nodiscard]] inline Result<std::vector<CgSummary>> ReferencePcgColumns(
    const CsrMatrix& a, const DenseMatrix& b, const CgOptions& options,
    const IncompleteCholesky* factor, const DenseMatrix* x0, DenseMatrix* x) {
  std::optional<IncompleteCholesky> own_factor;
  if (options.preconditioner == CgPreconditioner::kIncompleteCholesky &&
      factor == nullptr) {
    Result<IncompleteCholesky> made = IncompleteCholesky::Factor(a);
    if (!made.ok()) return made.status();
    own_factor.emplace(std::move(made).ValueOrDie());
    factor = &*own_factor;
  }
  *x = DenseMatrix(b.rows(), b.cols());
  std::vector<CgSummary> summaries;
  for (size_t c = 0; c < b.cols(); ++c) {
    const std::vector<double> guess =
        x0 != nullptr ? Column(*x0, c) : std::vector<double>();
    std::vector<double> solution;
    Result<CgSummary> summary =
        ReferencePcg(a, Column(b, c), options, factor,
                     x0 != nullptr ? &guess : nullptr, &solution);
    if (!summary.ok()) return summary.status();
    summaries.push_back(*summary);
    for (size_t i = 0; i < b.rows(); ++i) (*x)(i, c) = solution[i];
  }
  return summaries;
}

}  // namespace testing_reference
}  // namespace cad

#endif  // CAD_TESTS_REFERENCE_CG_H_
