#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>

namespace cad {

CsrMatrix CooMatrix::ToCsr() const {
  // Counting sort by row, then sort each row's slice by column and merge
  // duplicates. Avoids a full O(nnz log nnz) global sort.
  std::vector<size_t> counts(rows_ + 1, 0);
  for (const Triplet& t : triplets_) ++counts[t.row + 1];
  for (size_t i = 0; i < rows_; ++i) counts[i + 1] += counts[i];

  std::vector<uint32_t> cols(triplets_.size());
  std::vector<double> vals(triplets_.size());
  {
    std::vector<size_t> cursor(counts.begin(), counts.end() - 1);
    for (const Triplet& t : triplets_) {
      const size_t pos = cursor[t.row]++;
      cols[pos] = t.col;
      vals[pos] = t.value;
    }
  }

  std::vector<size_t> row_offsets(rows_ + 1, 0);
  std::vector<uint32_t> out_cols;
  std::vector<double> out_vals;
  out_cols.reserve(triplets_.size());
  out_vals.reserve(triplets_.size());

  std::vector<std::pair<uint32_t, double>> row_buffer;
  for (size_t i = 0; i < rows_; ++i) {
    row_buffer.clear();
    for (size_t p = counts[i]; p < counts[i + 1]; ++p) {
      row_buffer.emplace_back(cols[p], vals[p]);
    }
    std::sort(row_buffer.begin(), row_buffer.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Merge duplicate columns by summation.
    for (size_t p = 0; p < row_buffer.size();) {
      const uint32_t col = row_buffer[p].first;
      double sum = 0.0;
      while (p < row_buffer.size() && row_buffer[p].first == col) {
        sum += row_buffer[p].second;
        ++p;
      }
      out_cols.push_back(col);
      out_vals.push_back(sum);
    }
    row_offsets[i + 1] = out_cols.size();
  }
  return CsrMatrix(rows_, cols_, std::move(row_offsets), std::move(out_cols),
                   std::move(out_vals));
}

CsrMatrix::CsrMatrix(size_t rows, size_t cols, std::vector<size_t> row_offsets,
                     std::vector<uint32_t> col_indices,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  CAD_CHECK_EQ(row_offsets_.size(), rows_ + 1);
  CAD_CHECK_EQ(col_indices_.size(), values_.size());
  CAD_CHECK_EQ(row_offsets_.back(), col_indices_.size());
  CAD_CHECK_EQ(row_offsets_.front(), 0u);
  CAD_DCHECK_OK(CheckValid());
}

Status CsrMatrix::CheckValid(const CsrValidateOptions& options) const {
  if (row_offsets_.size() != rows_ + 1) {
    return Status::Internal("CSR: row_offsets size " +
                            std::to_string(row_offsets_.size()) +
                            " != rows+1 = " + std::to_string(rows_ + 1));
  }
  if (col_indices_.size() != values_.size()) {
    return Status::Internal("CSR: col_indices/values size mismatch");
  }
  if (row_offsets_.front() != 0 || row_offsets_.back() != values_.size()) {
    return Status::Internal("CSR: row_offsets must start at 0 and end at nnz");
  }
  for (size_t i = 0; i < rows_; ++i) {
    if (row_offsets_[i] > row_offsets_[i + 1]) {
      return Status::Internal("CSR: row_offsets decrease at row " +
                              std::to_string(i));
    }
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      if (col_indices_[p] >= cols_) {
        return Status::Internal(
            "CSR: column index " + std::to_string(col_indices_[p]) +
            " out of range in row " + std::to_string(i));
      }
      if (p > row_offsets_[i] && col_indices_[p - 1] >= col_indices_[p]) {
        return Status::Internal(
            "CSR: column indices not sorted/unique in row " +
            std::to_string(i) + " (" + std::to_string(col_indices_[p - 1]) +
            " then " + std::to_string(col_indices_[p]) + ")");
      }
      if (!std::isfinite(values_[p])) {
        return Status::NumericalError("CSR: non-finite value at row " +
                                      std::to_string(i) + ", col " +
                                      std::to_string(col_indices_[p]));
      }
    }
  }
  if (options.require_symmetric && !IsSymmetric(options.symmetry_tol)) {
    return Status::Internal("CSR: matrix is not symmetric within tol " +
                            std::to_string(options.symmetry_tol));
  }
  return Status::OK();
}

std::vector<double> CsrMatrix::Multiply(const std::vector<double>& x) const {
  CAD_CHECK_EQ(x.size(), cols_);
  std::vector<double> y(rows_, 0.0);
  MultiplyAccumulate(1.0, x, &y);
  return y;
}

void CsrMatrix::MultiplyAccumulate(double alpha, const std::vector<double>& x,
                                   std::vector<double>* y) const {
  CAD_DCHECK(x.size() == cols_ && y->size() == rows_);
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      sum += values_[p] * x[col_indices_[p]];
    }
    (*y)[i] += alpha * sum;
  }
}

void CsrMatrix::MultiplyBlock(const DenseMatrix& x, DenseMatrix* y) const {
  *y = DenseMatrix(rows_, x.cols());
  MultiplyAccumulateBlock(1.0, x, y);
}

namespace {

/// Accumulates columns [c0, c0 + W) of one CSR row into W compile-time
/// register accumulators. The per-column arithmetic is exactly the scalar
/// kernel's: a local sum over the row's nonzeros in storage order, nothing
/// else — W only controls how many independent column sums advance per
/// entry load, so the result is bit-identical at any W. Keeping the sums in
/// a fixed-size local array (instead of a heap vector the compiler must
/// assume aliased) lets them live in registers across the whole row: the
/// inner loop issues no stores, which is worth ~2-3x on the CG hot sweep.
template <size_t W, bool kOverwrite>
inline void AccumulateRowChunk(const double* values, const uint32_t* cols,
                               size_t begin, size_t end, const double* x,
                               size_t stride, size_t c0, double alpha,
                               double* yi) {
  double sums[W] = {0.0};
  // The column stream is sequential (hardware-prefetched) but the X rows it
  // gathers are not; issuing the row address a few entries ahead hides the
  // DRAM latency that otherwise dominates power-law rows. Prefetch is a
  // hint — it cannot change the arithmetic.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t p = begin; p < end; ++p) {
    if (p + kPrefetchAhead < end) {
      __builtin_prefetch(
          x + static_cast<size_t>(cols[p + kPrefetchAhead]) * stride + c0);
    }
    const double v = values[p];
    const double* xj = x + static_cast<size_t>(cols[p]) * stride + c0;
    for (size_t w = 0; w < W; ++w) sums[w] += v * xj[w];
  }
  for (size_t w = 0; w < W; ++w) {
    // The overwrite form spells out `0.0 +` so its result is bitwise the
    // accumulate form applied to a zero-filled Y (0.0 + (-0.0) is +0.0,
    // exactly as `fill(0); y += v` would produce).
    yi[c0 + w] = kOverwrite ? 0.0 + alpha * sums[w] : yi[c0 + w] + alpha * sums[w];
  }
}

/// One row of the block product for k <= 16, dispatched to the exact
/// compile-time width so the whole row runs in one pass with k register
/// accumulators.
template <bool kOverwrite>
inline void AccumulateRowNarrow(const double* values, const uint32_t* cols,
                                size_t begin, size_t end, const double* x,
                                size_t k, double alpha, double* yi) {
  switch (k) {
    case 1: AccumulateRowChunk<1, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 2: AccumulateRowChunk<2, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 3: AccumulateRowChunk<3, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 4: AccumulateRowChunk<4, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 5: AccumulateRowChunk<5, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 6: AccumulateRowChunk<6, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 7: AccumulateRowChunk<7, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 8: AccumulateRowChunk<8, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 9: AccumulateRowChunk<9, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 10: AccumulateRowChunk<10, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 11: AccumulateRowChunk<11, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 12: AccumulateRowChunk<12, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 13: AccumulateRowChunk<13, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 14: AccumulateRowChunk<14, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 15: AccumulateRowChunk<15, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    case 16: AccumulateRowChunk<16, kOverwrite>(values, cols, begin, end, x, k, 0, alpha, yi); break;
    default: break;
  }
}

}  // namespace

template <bool kOverwrite>
void CsrMatrix::BlockProductImpl(double alpha, const DenseMatrix& x,
                                 DenseMatrix* y) const {
  CAD_DCHECK(x.rows() == cols_ && y->rows() == rows_ &&
             y->cols() == x.cols());
  const size_t k = x.cols();
  // Per-row accumulators: column c follows the exact FP sequence of
  // MultiplyAccumulate on column c (a local sum over the row's nonzeros in
  // CSR order, then one `+= alpha * sum`), so the block product is
  // bit-identical to k independent SpMVs — the determinism contract the
  // block CG path relies on. For k <= 16 the row dispatches to a
  // compile-time width with register accumulators (AccumulateRowChunk);
  // wider blocks keep the single-pass heap accumulators. Neither variant
  // mixes columns, so neither can change bits.
  if (k >= 1 && k <= 16) {
    const double* xd = x.data().data();
    for (size_t i = 0; i < rows_; ++i) {
      AccumulateRowNarrow<kOverwrite>(values_.data(), col_indices_.data(),
                                      row_offsets_[i], row_offsets_[i + 1],
                                      xd, k, alpha, y->mutable_row(i));
    }
    return;
  }
  std::vector<double> sums(k);
  const size_t k4 = k - k % 4;
  for (size_t i = 0; i < rows_; ++i) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const double v = values_[p];
      const double* xj = x.row(col_indices_[p]);
      size_t c = 0;
      for (; c < k4; c += 4) {
        sums[c] += v * xj[c];
        sums[c + 1] += v * xj[c + 1];
        sums[c + 2] += v * xj[c + 2];
        sums[c + 3] += v * xj[c + 3];
      }
      for (; c < k; ++c) sums[c] += v * xj[c];
    }
    double* yi = y->mutable_row(i);
    for (size_t c = 0; c < k; ++c) {
      yi[c] = kOverwrite ? 0.0 + alpha * sums[c] : yi[c] + alpha * sums[c];
    }
  }
}

void CsrMatrix::MultiplyAccumulateBlock(double alpha, const DenseMatrix& x,
                                        DenseMatrix* y) const {
  BlockProductImpl<false>(alpha, x, y);
}

void CsrMatrix::MultiplyOverwriteBlock(double alpha, const DenseMatrix& x,
                                       DenseMatrix* y) const {
  BlockProductImpl<true>(alpha, x, y);
}

double CsrMatrix::At(uint32_t row, uint32_t col) const {
  CAD_DCHECK(row < rows_ && col < cols_);
  const auto begin = col_indices_.begin() + static_cast<long>(row_offsets_[row]);
  const auto end = col_indices_.begin() + static_cast<long>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<size_t>(it - col_indices_.begin())];
}

CsrMatrix CsrMatrix::Transpose() const {
  std::vector<size_t> offsets(cols_ + 1, 0);
  for (uint32_t col : col_indices_) ++offsets[col + 1];
  for (size_t i = 0; i < cols_; ++i) offsets[i + 1] += offsets[i];

  std::vector<uint32_t> out_cols(nnz());
  std::vector<double> out_vals(nnz());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const size_t pos = cursor[col_indices_[p]]++;
      out_cols[pos] = static_cast<uint32_t>(i);
      out_vals[pos] = values_[p];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(offsets), std::move(out_cols),
                   std::move(out_vals));
}

CsrMatrix CsrMatrix::Pruned(double threshold) const {
  std::vector<size_t> offsets(rows_ + 1, 0);
  std::vector<uint32_t> out_cols;
  std::vector<double> out_vals;
  out_cols.reserve(nnz());
  out_vals.reserve(nnz());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      if (std::fabs(values_[p]) > threshold) {
        out_cols.push_back(col_indices_[p]);
        out_vals.push_back(values_[p]);
      }
    }
    offsets[i + 1] = out_cols.size();
  }
  return CsrMatrix(rows_, cols_, std::move(offsets), std::move(out_cols),
                   std::move(out_vals));
}

std::vector<double> CsrMatrix::Diagonal() const {
  const size_t n = std::min(rows_, cols_);
  std::vector<double> diag(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    diag[i] = At(static_cast<uint32_t>(i), static_cast<uint32_t>(i));
  }
  return diag;
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      sum += values_[p];
    }
    sums[i] = sum;
  }
  return sums;
}

double CsrMatrix::TotalSum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

bool CsrMatrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const uint32_t j = col_indices_[p];
      if (std::fabs(values_[p] - At(j, static_cast<uint32_t>(i))) > tol) {
        return false;
      }
    }
  }
  return true;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      dense(i, col_indices_[p]) += values_[p];
    }
  }
  return dense;
}

}  // namespace cad
