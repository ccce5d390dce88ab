#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/vector_ops.h"

namespace cad {

Result<LanczosResult> SmallestEigenpairs(const CsrMatrix& a,
                                         const LanczosOptions& options) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Lanczos: matrix must be square");
  }
  const size_t n = a.rows();
  if (options.num_eigenpairs == 0) {
    return Status::InvalidArgument("Lanczos: num_eigenpairs must be > 0");
  }
  if (options.num_eigenpairs > n) {
    return Status::InvalidArgument("Lanczos: more eigenpairs than dimension");
  }

  const size_t subspace =
      std::min(n, options.max_subspace > 0 ? options.max_subspace
                                           : 4 * options.num_eigenpairs + 40);

  // Lanczos with full reorthogonalization: build an orthonormal Krylov
  // basis q_0..q_{m-1} and the tridiagonal projection T (alpha on the
  // diagonal, beta off-diagonal).
  Rng rng(options.seed);
  std::vector<std::vector<double>> basis;
  basis.reserve(subspace);
  std::vector<double> alpha;
  std::vector<double> beta;

  std::vector<double> q(n);
  for (double& v : q) v = rng.Normal();
  ScaleInPlace(1.0 / std::max(Norm2(q), 1e-300), &q);
  basis.push_back(q);

  std::vector<double> w(n);
  for (size_t j = 0; j < subspace; ++j) {
    w.assign(n, 0.0);
    a.MultiplyAccumulate(1.0, basis[j], &w);
    alpha.push_back(Dot(basis[j], w));
    // w -= alpha_j q_j + beta_{j-1} q_{j-1}, then reorthogonalize against
    // the whole basis (twice is enough in practice; once suffices with the
    // full sweep below).
    Axpy(-alpha[j], basis[j], &w);
    if (j > 0) Axpy(-beta[j - 1], basis[j - 1], &w);
    for (const std::vector<double>& prior : basis) {
      Axpy(-Dot(prior, w), prior, &w);
    }
    const double norm = Norm2(w);
    if (j + 1 == subspace || norm < 1e-12) {
      // Invariant subspace found (or subspace exhausted).
      break;
    }
    beta.push_back(norm);
    ScaleInPlace(1.0 / norm, &w);
    basis.push_back(w);
  }

  const size_t m = basis.size();
  if (options.num_eigenpairs > m) {
    return Status::NumericalError(
        "Lanczos: Krylov space collapsed at dimension " + std::to_string(m) +
        " < requested " + std::to_string(options.num_eigenpairs));
  }

  // Eigendecomposition of the small tridiagonal T.
  DenseMatrix t(m, m);
  for (size_t i = 0; i < m; ++i) {
    t(i, i) = alpha[i];
    if (i + 1 < m) {
      t(i, i + 1) = beta[i];
      t(i + 1, i) = beta[i];
    }
  }
  EigenDecomposition ritz;
  CAD_ASSIGN_OR_RETURN(ritz, JacobiEigenDecomposition(t));

  // The k smallest Ritz pairs (eigenvalues ascending).
  const size_t k = options.num_eigenpairs;
  LanczosResult result;
  result.eigenvalues.resize(k);
  result.eigenvectors = DenseMatrix(n, k);
  result.residuals.resize(k);
  const double scale = std::max(1e-300, [&a] {
    double sum = 0.0;
    for (double v : a.values()) sum += v * v;
    return std::sqrt(sum);
  }());

  result.converged = true;
  for (size_t out = 0; out < k; ++out) {
    result.eigenvalues[out] = ritz.eigenvalues[out];
    // Ritz vector: v = Q y.
    std::vector<double> v(n, 0.0);
    for (size_t j = 0; j < m; ++j) {
      Axpy(ritz.eigenvectors(j, out), basis[j], &v);
    }
    const double v_norm = Norm2(v);
    if (v_norm > 0.0) ScaleInPlace(1.0 / v_norm, &v);
    // Residual ||A v - lambda v||.
    std::vector<double> av(n, 0.0);
    a.MultiplyAccumulate(1.0, v, &av);
    Axpy(-result.eigenvalues[out], v, &av);
    result.residuals[out] = Norm2(av);
    if (result.residuals[out] > options.tolerance * scale) {
      result.converged = false;
    }
    for (size_t i = 0; i < n; ++i) result.eigenvectors(i, out) = v[i];
  }
  return result;
}

}  // namespace cad
