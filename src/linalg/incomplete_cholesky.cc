#include "linalg/incomplete_cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace cad {

namespace {

/// Attempts IC(0) of a + shift * diag(a). Returns the lower factor in CSR
/// (sorted columns, diagonal last in each row) or an error on breakdown.
Result<CsrMatrix> TryFactor(const CsrMatrix& a, double shift) {
  const size_t n = a.rows();
  // Extract the lower-triangle pattern row by row (columns ascending, so
  // the diagonal is each row's last entry).
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<uint32_t> cols;
  std::vector<double> vals;
  cols.reserve(a.nnz() / 2 + n);
  vals.reserve(a.nnz() / 2 + n);
  for (size_t i = 0; i < n; ++i) {
    bool has_diagonal = false;
    for (size_t p = a.RowBegin(i); p < a.RowEnd(i); ++p) {
      const uint32_t j = a.col_indices()[p];
      if (j > i) break;  // columns sorted; rest is upper triangle
      double value = a.values()[p];
      if (j == i) {
        value *= (1.0 + shift);
        has_diagonal = true;
      }
      cols.push_back(j);
      vals.push_back(value);
    }
    if (!has_diagonal) {
      return Status::NumericalError(
          "IncompleteCholesky: zero diagonal at row " + std::to_string(i));
    }
    offsets[i + 1] = cols.size();
  }

  // In-place IC(0): process rows in order; for entry (i, k) use the already
  // finished rows. Two-pointer merges exploit sorted columns.
  for (size_t i = 0; i < n; ++i) {
    const size_t row_begin = offsets[i];
    const size_t row_end = offsets[i + 1];
    for (size_t p = row_begin; p < row_end; ++p) {
      const uint32_t k = cols[p];
      // dot = sum_{j < k} L(i, j) * L(k, j) over the shared pattern.
      double dot = 0.0;
      {
        size_t pi = row_begin;
        size_t pk = offsets[k];
        const size_t k_end = offsets[k + 1];
        while (pi < p && pk < k_end && cols[pk] < k) {
          if (cols[pi] == cols[pk]) {
            dot += vals[pi] * vals[pk];
            ++pi;
            ++pk;
          } else if (cols[pi] < cols[pk]) {
            ++pi;
          } else {
            ++pk;
          }
        }
      }
      if (k == i) {
        const double pivot = vals[p] - dot;
        if (pivot <= 0.0) {
          return Status::NumericalError(
              "IncompleteCholesky: non-positive pivot at row " +
              std::to_string(i));
        }
        vals[p] = std::sqrt(pivot);
      } else {
        // L(k, k) is the last entry of row k.
        const double lkk = vals[offsets[k + 1] - 1];
        vals[p] = (vals[p] - dot) / lkk;
      }
    }
  }
  return CsrMatrix(n, n, std::move(offsets), std::move(cols), std::move(vals));
}

}  // namespace

Result<IncompleteCholesky> IncompleteCholesky::Factor(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("IncompleteCholesky: matrix must be square");
  }
  CAD_DCHECK(a.IsSymmetric(1e-9));
  CAD_DCHECK_OK(a.CheckValid());
  CAD_TRACE_SPAN("ic0_factor");
  double shift = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    Result<CsrMatrix> lower = TryFactor(a, shift);
    if (lower.ok()) {
      CAD_METRIC_INC("ic0.factorizations");
      CAD_METRIC_ADD("ic0.shift_retries", static_cast<uint64_t>(attempt));
      // The shift sequence is deterministic for a given matrix, so this
      // gauge stays reproducible across runs and thread counts.
      CAD_METRIC_SET("ic0.last_shift", shift);
      CsrMatrix transpose = lower->Transpose();
      return IncompleteCholesky(std::move(lower).ValueOrDie(),
                                std::move(transpose), shift);
    }
    shift = shift == 0.0 ? 1e-3 : shift * 10.0;
  }
  return Status::NumericalError(
      "IncompleteCholesky: factorization failed even with diagonal shift; "
      "matrix is likely not positive definite");
}

std::vector<double> IncompleteCholesky::Apply(
    const std::vector<double>& b) const {
  const size_t n = dimension();
  CAD_CHECK_EQ(b.size(), n);
  // Forward substitution L y = b (diagonal is each row's last entry).
  std::vector<double> y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const size_t end = lower_.RowEnd(i);
    for (size_t p = lower_.RowBegin(i); p + 1 < end; ++p) {
      sum -= lower_.values()[p] * y[lower_.col_indices()[p]];
    }
    y[i] = sum / lower_.values()[end - 1];
  }
  // Back substitution L^T x = y using the transpose's (upper-triangular)
  // rows, whose first entry is the diagonal.
  std::vector<double> x(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = y[i];
    const size_t begin = lower_transpose_.RowBegin(i);
    for (size_t p = begin + 1; p < lower_transpose_.RowEnd(i); ++p) {
      sum -= lower_transpose_.values()[p] * x[lower_transpose_.col_indices()[p]];
    }
    x[i] = sum / lower_transpose_.values()[begin];
  }
  return x;
}

void IncompleteCholesky::ApplyBlock(const DenseMatrix& b,
                                    DenseMatrix* x) const {
  CAD_CHECK_EQ(b.rows(), dimension());
  if (x->rows() != b.rows() || x->cols() != b.cols()) {
    *x = DenseMatrix(b.rows(), b.cols());
  }
  ApplyLeadingColumns(b, b.cols(), x);
}

void IncompleteCholesky::ApplyLeadingColumns(const DenseMatrix& b,
                                             size_t width,
                                             DenseMatrix* x) const {
  const size_t n = dimension();
  CAD_CHECK_EQ(b.rows(), n);
  CAD_CHECK_EQ(x->rows(), n);
  CAD_DCHECK(width <= b.cols() && width <= x->cols() && x != &b);
  // Each column follows exactly the scalar Apply substitution order (terms
  // subtracted in CSR position order, then one division), so the block
  // application is bit-identical to `width` scalar applications. Both
  // sweeps run in place in X: forward row i reads only rows j < i, which
  // already hold Y, and backward row i reads its own Y value and rows
  // j > i, which already hold X.
  const size_t k4 = width - width % 4;
  const auto accumulate_row = [width, k4](double coeff, const double* src,
                                          double* sums) {
    size_t c = 0;
    for (; c < k4; c += 4) {
      sums[c] -= coeff * src[c];
      sums[c + 1] -= coeff * src[c + 1];
      sums[c + 2] -= coeff * src[c + 2];
      sums[c + 3] -= coeff * src[c + 3];
    }
    for (; c < width; ++c) sums[c] -= coeff * src[c];
  };

  // Forward substitution L Y = B (diagonal is each row's last entry).
  for (size_t i = 0; i < n; ++i) {
    const double* bi = b.row(i);
    double* yi = x->mutable_row(i);
    std::copy(bi, bi + width, yi);
    const size_t end = lower_.RowEnd(i);
    for (size_t p = lower_.RowBegin(i); p + 1 < end; ++p) {
      accumulate_row(lower_.values()[p], x->row(lower_.col_indices()[p]), yi);
    }
    const double diag = lower_.values()[end - 1];
    for (size_t c = 0; c < width; ++c) yi[c] = yi[c] / diag;
  }
  // Back substitution L^T X = Y using the transpose's (upper-triangular)
  // rows, whose first entry is the diagonal.
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double* xi = x->mutable_row(i);
    const size_t begin = lower_transpose_.RowBegin(i);
    for (size_t p = begin + 1; p < lower_transpose_.RowEnd(i); ++p) {
      accumulate_row(lower_transpose_.values()[p],
                     x->row(lower_transpose_.col_indices()[p]), xi);
    }
    const double diag = lower_transpose_.values()[begin];
    for (size_t c = 0; c < width; ++c) xi[c] = xi[c] / diag;
  }
}

}  // namespace cad
