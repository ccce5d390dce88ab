#ifndef CAD_LINALG_CONJUGATE_GRADIENT_H_
#define CAD_LINALG_CONJUGATE_GRADIENT_H_

#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief Preconditioner choices for PCG.
enum class CgPreconditioner {
  /// Plain CG.
  kNone,
  /// Diagonal scaling. Cheap; helps on heterogeneous degree distributions.
  kJacobi,
  /// Zero-fill incomplete Cholesky (IC(0)). Stronger; typically 2-4x fewer
  /// iterations on graph Laplacians at the cost of two sparse triangular
  /// solves per iteration and an upfront factorization.
  kIncompleteCholesky,
};

const char* CgPreconditionerToString(CgPreconditioner preconditioner);

/// \brief Options for the (preconditioned) conjugate gradient solver.
struct CgOptions {
  /// Relative residual target: stop when ||b - Ax|| <= tolerance * ||b||.
  double tolerance = 1e-8;
  /// Iteration cap; 0 means 10 * n + 100.
  size_t max_iterations = 0;
  CgPreconditioner preconditioner = CgPreconditioner::kJacobi;
  /// Worker threads for SolveBlock: the k columns are split into one
  /// contiguous chunk per thread, each advanced in lockstep on its own.
  /// 1 = serial, which solves in the caller's blocks with no chunk copies.
  /// The preconditioner is built once and shared read-only.
  size_t num_threads = 1;
  /// No effect; removed together with the benchmark harness's assignment.
  bool use_block_solver = false;
};

/// \brief Optional cross-call state for a solve: an initial-guess block and
/// a prebuilt IC(0) factorization. Both are borrowed and must outlive the
/// call; both default to "absent", which reproduces the stateless behavior.
struct CgSolveContext {
  /// n x k initial guesses, column c seeding system c (n x 1 for Solve).
  /// nullptr starts every system from the zero vector. A guess adds one
  /// extra residual evaluation up front and can return in 0 iterations.
  const DenseMatrix* initial_guess = nullptr;
  /// Reuse this IC(0) factor instead of refactorizing. Consulted only when
  /// options.preconditioner == kIncompleteCholesky; see
  /// commute/solver_cache.h for the staleness policy that feeds it.
  const IncompleteCholesky* cached_factor = nullptr;
};

/// \brief Outcome of a CG solve.
struct CgSummary {
  size_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// \brief Aggregate over the per-column summaries of one SolveBlock batch.
/// Iteration counts are deterministic for a fixed system/rhs/options tuple
/// (each column's arithmetic is sequential), so identical batches produce
/// identical stats regardless of CgOptions::num_threads.
struct CgBatchStats {
  size_t num_systems = 0;
  size_t num_converged = 0;
  size_t min_iterations = 0;
  size_t max_iterations = 0;
  size_t total_iterations = 0;
  /// Largest relative residual across the batch (worst-converged system).
  double max_relative_residual = 0.0;
};

/// Folds a batch of per-column summaries into CgBatchStats.
CgBatchStats SummarizeCgBatch(const std::vector<CgSummary>& summaries);

/// \brief Preconditioned conjugate gradient for symmetric positive
/// (semi-)definite systems A x = b.
///
/// This is the practical stand-in for the Spielman-Teng near-linear solver
/// referenced by the paper (see DESIGN.md, substitutions): the approximate
/// commute-time embedding solves k = O(log n) systems against the graph
/// Laplacian through this interface.
///
/// For singular-but-consistent systems (e.g. the Laplacian of a connected
/// graph with a right-hand side orthogonal to the all-ones vector), CG
/// converges to the minimum-norm-compatible solution provided `x0` has no
/// nullspace component; callers solving Laplacian systems should either
/// project `b` or use the epsilon-regularized Laplacian.
class ConjugateGradientSolver {
 public:
  explicit ConjugateGradientSolver(CgOptions options = CgOptions())
      : options_(options) {}

  /// Solves A x = b starting from the zero vector. `a` must be square and
  /// symmetric (checked in debug builds only, for cost reasons). Writes the
  /// solution into *x and returns a summary. Returns NumericalError only on
  /// a breakdown (indefinite matrix); non-convergence is reported via
  /// `CgSummary::converged` so that callers can decide how strict to be.
  /// Runs the SolveBlock kernel with k = 1; with kIncompleteCholesky the
  /// factorization is computed per call.
  [[nodiscard]] Result<CgSummary> Solve(const CsrMatrix& a, const std::vector<double>& b,
                          std::vector<double>* x) const;

  /// Solve with an initial guess: starts from `x0` instead of the zero
  /// vector, converging in 0 iterations when x0 already satisfies the
  /// residual target (the temporal warm-start path). With x0 = 0 this is
  /// numerically equivalent to the overload above.
  [[nodiscard]] Result<CgSummary> Solve(const CsrMatrix& a, const std::vector<double>& b,
                          const std::vector<double>& x0,
                          std::vector<double>* x) const;

  /// Lockstep block solve of A X = B for a row-major n x k right-hand-side
  /// block: every CG iteration advances all still-unconverged systems
  /// through one shared SpMM sweep with per-system scalars (alpha, beta,
  /// residual norms) and a convergence mask that freezes finished columns.
  /// The preconditioner (an IC(0) factorization included) is built once for
  /// all k systems unless CgSolveContext supplies one. Each column's
  /// floating-point sequence is that of a scalar PCG on the column alone,
  /// so solutions, residuals, and iteration counts do not depend on k, on
  /// which columns share the block, or on num_threads (columns are chunked
  /// across threads; chunking never mixes columns). Writes the n x k
  /// solution block into *x.
  [[nodiscard]] Result<std::vector<CgSummary>> SolveBlock(
      const CsrMatrix& a, const DenseMatrix& b, DenseMatrix* x,
      const CgSolveContext& context = CgSolveContext()) const;

  const CgOptions& options() const { return options_; }

 private:
  CgOptions options_;
};

}  // namespace cad

#endif  // CAD_LINALG_CONJUGATE_GRADIENT_H_
