#ifndef CAD_LINALG_LANCZOS_H_
#define CAD_LINALG_LANCZOS_H_

#include <cstdint>

#include "common/result.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief Options for the Lanczos extreme-eigenpair solver.
struct LanczosOptions {
  /// Number of (smallest) eigenpairs to return.
  size_t num_eigenpairs = 2;
  /// Krylov subspace dimension; 0 means min(n, 4 * num_eigenpairs + 40).
  size_t max_subspace = 0;
  /// Residual target ||A v - lambda v|| <= tolerance * ||A||_F for
  /// convergence reporting (results are returned either way).
  double tolerance = 1e-8;
  /// Seed for the random start vector.
  uint64_t seed = 3;
};

/// \brief Result of a Lanczos run: `eigenvalues[i]` with the matching column
/// i of `eigenvectors` (n x k), plus per-pair residual norms.
struct LanczosResult {
  std::vector<double> eigenvalues;
  DenseMatrix eigenvectors;
  std::vector<double> residuals;
  bool converged = false;
};

/// \brief Computes the `num_eigenpairs` algebraically smallest eigenpairs of
/// a sparse symmetric matrix via Lanczos with full reorthogonalization.
///
/// Used for Laplacian eigenmap embeddings at scale (the paper's Fig. 2 plots
/// the 2nd and 3rd smallest Laplacian eigenvectors): the smallest
/// eigenvalues of a PSD Laplacian are an extreme end of the spectrum, which
/// Lanczos approximates well from a Krylov space of modest dimension. Full
/// reorthogonalization keeps the basis numerically orthogonal, which is
/// affordable at the subspace sizes used here.
[[nodiscard]] Result<LanczosResult> SmallestEigenpairs(
    const CsrMatrix& a, const LanczosOptions& options = LanczosOptions());

}  // namespace cad

#endif  // CAD_LINALG_LANCZOS_H_
