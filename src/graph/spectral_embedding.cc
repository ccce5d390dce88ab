#include "graph/spectral_embedding.h"

#include <cmath>

#include "graph/snapshot.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/lanczos.h"

namespace cad {

namespace {

/// Flips column `col` of `m` so its largest-magnitude entry is positive.
void CanonicalizeSign(DenseMatrix* m, size_t col) {
  double best = 0.0;
  for (size_t i = 0; i < m->rows(); ++i) {
    if (std::fabs((*m)(i, col)) > std::fabs(best)) best = (*m)(i, col);
  }
  if (best < 0.0) {
    for (size_t i = 0; i < m->rows(); ++i) (*m)(i, col) = -(*m)(i, col);
  }
}

}  // namespace

Result<SpectralEmbedding> ComputeSpectralEmbedding(
    const WeightedGraph& graph, const SpectralEmbeddingOptions& options) {
  const size_t n = graph.num_nodes();
  if (options.dimension == 0) {
    return Status::InvalidArgument("embedding dimension must be positive");
  }
  if (n < options.dimension + 1) {
    return Status::InvalidArgument(
        "graph too small for a " + std::to_string(options.dimension) +
        "-dimensional spectral embedding");
  }
  const size_t want = options.dimension + 1;  // +1 for the constant vector

  SpectralEmbedding embedding;
  embedding.coordinates = DenseMatrix(n, options.dimension);
  embedding.eigenvalues.resize(options.dimension);

  if (n <= options.dense_limit) {
    EigenDecomposition eig;
    CAD_ASSIGN_OR_RETURN(eig,
                         JacobiEigenDecomposition(ToLaplacianDense(graph)));
    for (size_t d = 0; d < options.dimension; ++d) {
      embedding.eigenvalues[d] = eig.eigenvalues[d + 1];
      for (size_t i = 0; i < n; ++i) {
        embedding.coordinates(i, d) = eig.eigenvectors(i, d + 1);
      }
      CanonicalizeSign(&embedding.coordinates, d);
    }
    return embedding;
  }

  LanczosOptions lanczos;
  lanczos.num_eigenpairs = want;
  lanczos.seed = options.seed;
  LanczosResult result;
  CAD_ASSIGN_OR_RETURN(result,
                       SmallestEigenpairs(ToLaplacianCsr(graph), lanczos));
  for (size_t d = 0; d < options.dimension; ++d) {
    embedding.eigenvalues[d] = result.eigenvalues[d + 1];
    for (size_t i = 0; i < n; ++i) {
      embedding.coordinates(i, d) = result.eigenvectors(i, d + 1);
    }
    CanonicalizeSign(&embedding.coordinates, d);
  }
  return embedding;
}

}  // namespace cad
