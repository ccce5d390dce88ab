#ifndef CAD_LINALG_SPARSE_MATRIX_H_
#define CAD_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace cad {

/// \brief What CsrMatrix::CheckValid should verify beyond the core CSR
/// structural invariants.
struct CsrValidateOptions {
  /// Additionally require the matrix to be square and symmetric (the
  /// Laplacian/adjacency contract of the solver entry points).
  bool require_symmetric = false;
  /// Absolute tolerance for the symmetry comparison.
  double symmetry_tol = 1e-12;
};

/// \brief A single nonzero in coordinate format.
struct Triplet {
  uint32_t row;
  uint32_t col;
  double value;
};

class CsrMatrix;

/// \brief Coordinate-format builder for sparse matrices.
///
/// Accumulates (row, col, value) triplets in arbitrary order; duplicates are
/// summed when converting to CSR. This is the ingestion format for graph
/// adjacency and Laplacian construction.
class CooMatrix {
 public:
  CooMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return triplets_.size(); }

  /// Appends a triplet. Indices must be in range.
  void Add(uint32_t row, uint32_t col, double value) {
    CAD_DCHECK(row < rows_ && col < cols_);
    triplets_.push_back(Triplet{row, col, value});
  }

  /// Appends `value` at (row, col) and (col, row).
  void AddSymmetric(uint32_t row, uint32_t col, double value) {
    Add(row, col, value);
    if (row != col) Add(col, row, value);
  }

  void Reserve(size_t capacity) { triplets_.reserve(capacity); }

  const std::vector<Triplet>& triplets() const { return triplets_; }

  /// Converts to CSR. Duplicate coordinates are summed; entries that sum to
  /// exactly zero are kept (call CsrMatrix::Pruned to drop them).
  CsrMatrix ToCsr() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<Triplet> triplets_;
};

/// \brief Compressed sparse row matrix.
///
/// Immutable after construction. All large-graph computation (Laplacian
/// matvec inside CG, degree extraction, adjacency iteration) runs on this
/// representation.
class CsrMatrix {
 public:
  /// Creates an empty rows x cols matrix with no nonzeros.
  CsrMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), row_offsets_(rows + 1, 0) {}

  /// Creates a CSR matrix from raw arrays. `row_offsets` must have
  /// rows+1 entries, be non-decreasing, and end at col_indices.size().
  CsrMatrix(size_t rows, size_t cols, std::vector<size_t> row_offsets,
            std::vector<uint32_t> col_indices, std::vector<double> values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A x. Requires x.size() == cols().
  std::vector<double> Multiply(const std::vector<double>& x) const;

  /// y += alpha * A x (no allocation). Requires matching sizes.
  void MultiplyAccumulate(double alpha, const std::vector<double>& x,
                          std::vector<double>* y) const;

  /// Y = A X for a row-major cols() x k dense block (SpMM): one CSR sweep
  /// serves all k columns instead of k sweeps. Column c of the result is
  /// bit-identical to Multiply(column c of X) — the per-column accumulation
  /// order is unchanged, only the loop nest is. Resizes *y to rows() x k.
  void MultiplyBlock(const DenseMatrix& x, DenseMatrix* y) const;

  /// Y += alpha * A X, the block analog of MultiplyAccumulate (no resize;
  /// *y must already be rows() x X.cols()). Same bit-identity guarantee.
  void MultiplyAccumulateBlock(double alpha, const DenseMatrix& x,
                               DenseMatrix* y) const;

  /// Y += alpha * A X[:, x_begin, x_begin + Y.cols()): the accumulate form
  /// on a contiguous column range of X, read in place through X's row
  /// stride (no resize). Same bit-identity guarantee per column.
  void MultiplyAccumulateColumns(double alpha, const DenseMatrix& x,
                                 size_t x_begin, DenseMatrix* y) const;

  /// Y = alpha * A X without reading Y first (no resize; *y must already be
  /// rows() x X.cols()). Each output is computed as `0.0 + alpha * sum`, so
  /// the result is bitwise identical to zero-filling Y and calling
  /// MultiplyAccumulateBlock — it just skips the extra write pass. Used by
  /// the lockstep CG loop, where Y is overwritten every iteration anyway.
  void MultiplyOverwriteBlock(double alpha, const DenseMatrix& x,
                              DenseMatrix* y) const;

  /// Y[:, 0, width) = alpha * A X[:, 0, width): the overwrite form on the
  /// leading `width` columns of X and Y, each read or written through its
  /// own row stride; Y's columns from `width` on are not touched. The
  /// lockstep CG's sweep over the still-iterating columns it keeps packed
  /// at the front of its blocks. Same bit-identity guarantee per column.
  void MultiplyOverwriteLeading(double alpha, const DenseMatrix& x,
                                size_t width, DenseMatrix* y) const;

  /// Returns the entry at (row, col), or 0 if absent. O(log deg(row)).
  double At(uint32_t row, uint32_t col) const;

  /// Returns A^T.
  CsrMatrix Transpose() const;

  /// Returns a copy with entries |v| <= threshold removed.
  CsrMatrix Pruned(double threshold = 0.0) const;

  /// The main diagonal as a dense vector.
  std::vector<double> Diagonal() const;

  /// Row sums (for an adjacency matrix: weighted degrees).
  std::vector<double> RowSums() const;

  /// Sum of all stored values.
  double TotalSum() const;

  /// True if square and exactly symmetric in sparsity and values up to tol.
  bool IsSymmetric(double tol = 1e-12) const;

  /// \brief Full structural validation: row offsets non-decreasing and
  /// consistent with nnz, column indices strictly increasing (sorted,
  /// unique) within each row and in range, all values finite, plus the
  /// optional symmetry contract. O(nnz) (O(nnz log nnz) with symmetry).
  /// Intended for CAD_DCHECK_OK at solver entry points; returns the first
  /// violation found with row/position detail.
  [[nodiscard]] Status CheckValid(
      const CsrValidateOptions& options = CsrValidateOptions()) const;

  /// Densifies; intended for tests and small matrices only.
  DenseMatrix ToDense() const;

  /// Iteration support: [begin, end) positions of row i's nonzeros.
  size_t RowBegin(size_t i) const { return row_offsets_[i]; }
  size_t RowEnd(size_t i) const { return row_offsets_[i + 1]; }

 private:
  // Shared body of the block products from X's columns [x_begin, x_begin +
  // width) into Y's columns [0, width); the flag only changes how each
  // finished row sum lands in Y.
  template <bool kOverwrite>
  void BlockProductImpl(double alpha, const DenseMatrix& x, size_t x_begin,
                        size_t width, DenseMatrix* y) const;

  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_offsets_;
  std::vector<uint32_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace cad

#endif  // CAD_LINALG_SPARSE_MATRIX_H_
