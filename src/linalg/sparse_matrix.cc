#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/column_kernels.h"

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

/// Two adjacent column sums advanced by one SSE2 instruction. Each lane is
/// an ordinary IEEE double multiply and add, so a pair computes exactly
/// what two scalar sums would.
typedef double ColumnPair __attribute__((vector_size(16)));

/// Accumulates columns [c0, c0 + W) of one CSR row into W compile-time
/// register accumulators. The per-column arithmetic is exactly the scalar
/// kernel's: a local sum over the row's nonzeros in storage order, nothing
/// else — W only controls how many independent column sums advance per
/// entry load, so the result is bit-identical at any W. Keeping the sums in
/// a fixed-size local array (instead of a heap vector the compiler must
/// assume aliased) lets them live in registers across the whole row: the
/// inner loop issues no stores, which is worth ~2-3x on the CG hot sweep.
/// The sums are spelled as column pairs (plus one odd column) because
/// GCC's own vectorization of the plain loop varies with the inlining
/// context: some widths came out partly or wholly scalar.
template <size_t W, bool kOverwrite, bool kPrefetch>
inline void AccumulateRowChunk(const double* values, const uint32_t* cols,
                               size_t begin, size_t end, const double* x,
                               size_t stride, size_t c0, double alpha,
                               double* yi) {
  ColumnPair pairs[W / 2 > 0 ? W / 2 : 1] = {};
  double odd = 0.0;
  // The column stream is sequential (hardware-prefetched) but the X rows it
  // gathers are not; issuing the row address a few entries ahead hides the
  // memory latency of power-law rows when X does not fit in cache (see
  // GatherPrefetchPays). Prefetch is a hint — it cannot change the
  // arithmetic.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t p = begin; p < end; ++p) {
    if constexpr (kPrefetch) {
      if (p + kPrefetchAhead < end) {
        __builtin_prefetch(
            x + static_cast<size_t>(cols[p + kPrefetchAhead]) * stride + c0);
      }
    }
    const double v = values[p];
    const ColumnPair vv = {v, v};
    const double* xj = x + static_cast<size_t>(cols[p]) * stride + c0;
    for (size_t w = 0; w < W / 2; ++w) {
      ColumnPair xw;
      std::memcpy(&xw, xj + 2 * w, sizeof(xw));
      pairs[w] += vv * xw;
    }
    if constexpr (W % 2 == 1) odd += v * xj[W - 1];
  }
  double sums[W] = {};
  for (size_t w = 0; w < W / 2; ++w) {
    sums[2 * w] = pairs[w][0];
    sums[2 * w + 1] = pairs[w][1];
  }
  if constexpr (W % 2 == 1) sums[W - 1] = odd;
  for (size_t w = 0; w < W; ++w) {
    // The overwrite form spells out `0.0 +` so its result is bitwise the
    // accumulate form applied to a zero-filled Y (0.0 + (-0.0) is +0.0,
    // exactly as `fill(0); y += v` would produce).
    yi[c0 + w] = kOverwrite ? 0.0 + alpha * sums[w] : yi[c0 + w] + alpha * sums[w];
  }
}

/// Columns [c0, c0 + width) of one CSR row for width <= 16, dispatched to
/// the exact compile-time width so they run in one pass with `width`
/// register accumulators.
template <bool kOverwrite, bool kPrefetch>
inline void AccumulateRowNarrow(const double* values, const uint32_t* cols,
                                size_t begin, size_t end, const double* x,
                                size_t stride, size_t c0, size_t width,
                                double alpha, double* yi) {
  switch (width) {
    case 1: AccumulateRowChunk<1, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 2: AccumulateRowChunk<2, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 3: AccumulateRowChunk<3, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 4: AccumulateRowChunk<4, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 5: AccumulateRowChunk<5, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 6: AccumulateRowChunk<6, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 7: AccumulateRowChunk<7, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 8: AccumulateRowChunk<8, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 9: AccumulateRowChunk<9, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 10: AccumulateRowChunk<10, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 11: AccumulateRowChunk<11, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 12: AccumulateRowChunk<12, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 13: AccumulateRowChunk<13, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 14: AccumulateRowChunk<14, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 15: AccumulateRowChunk<15, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    case 16: AccumulateRowChunk<16, kOverwrite, kPrefetch>(values, cols, begin, end, x, stride, c0, alpha, yi); break;
    default: break;
  }
}

/// Whether the sweep should prefetch the X rows it gathers, from what the
/// kernel sees: the sweep width and the gathered block's n * width * 8
/// bytes. Measured on R-MAT Laplacians with randomly relabelled nodes
/// (DESIGN.md §11): while X fits in a core's cache the prefetches are pure
/// overhead — 27-41% of a width-1..4 sweep at 8k nodes — and they pay only
/// for wide rows, or once the block spills, from a size that grows as the
/// width (and so the arithmetic per gathered row) shrinks.
bool GatherPrefetchPays(size_t rows, size_t width) {
  struct Threshold {
    size_t min_width;
    size_t min_bytes;
  };
  constexpr Threshold kPays[] = {
      {10, 0}, {5, size_t{4} << 20}, {3, size_t{16} << 20}};
  const size_t bytes = rows * width * sizeof(double);
  for (const Threshold& threshold : kPays) {
    if (width >= threshold.min_width && bytes > threshold.min_bytes) {
      return true;
    }
  }
  return false;
}

/// Row i's columns [0, width) of Y = (or +=) alpha * A X: register-
/// accumulator chunks of 16 columns, then one narrower tail chunk from
/// `tail_begin`; chunking never mixes columns, so it cannot change bits.
template <bool kOverwrite, bool kPrefetch>
inline void SweepRow(const double* values, const uint32_t* cols, size_t begin,
                     size_t end, const double* x, size_t x_stride,
                     size_t width, size_t tail_begin, double alpha,
                     double* yi) {
  for (size_t c0 = 0; c0 < tail_begin; c0 += kMaxKernelWidth) {
    AccumulateRowChunk<kMaxKernelWidth, kOverwrite, kPrefetch>(
        values, cols, begin, end, x, x_stride, c0, alpha, yi);
  }
  AccumulateRowNarrow<kOverwrite, kPrefetch>(values, cols, begin, end, x,
                                             x_stride, tail_begin,
                                             width - tail_begin, alpha, yi);
}

}  // namespace

template <bool kOverwrite>
void CsrMatrix::BlockProductImpl(double alpha, const DenseMatrix& x,
                                 size_t x_begin, size_t width,
                                 DenseMatrix* y) const {
  CAD_DCHECK(x.rows() == cols_ && y->rows() == rows_ &&
             width <= y->cols() && x_begin + width <= x.cols());
  // Per-row accumulators: column c follows the exact FP sequence of
  // MultiplyAccumulate on column c (a local sum over the row's nonzeros in
  // CSR order, then one `+= alpha * sum`), so the block product is
  // bit-identical to k independent SpMVs — the determinism contract the
  // block CG path relies on. X is read in place from column x_begin
  // through its row stride, Y is written through its own.
  const double* xd = x.data().data() + x_begin;
  const size_t x_stride = x.cols();
  const size_t tail_begin = width - width % kMaxKernelWidth;
  // Chosen once per call; the per-row branch is perfectly predicted. (A
  // whole-sweep function per prefetch choice measured ~10% slower at width
  // 32 on 100k rows with GCC 12, with an identical inner loop.)
  const bool prefetch = GatherPrefetchPays(cols_, width);
  for (size_t i = 0; i < rows_; ++i) {
    const size_t begin = row_offsets_[i];
    const size_t end = row_offsets_[i + 1];
    double* yi = y->mutable_row(i);
    if (prefetch) {
      SweepRow<kOverwrite, true>(values_.data(), col_indices_.data(), begin,
                                 end, xd, x_stride, width, tail_begin, alpha,
                                 yi);
    } else {
      SweepRow<kOverwrite, false>(values_.data(), col_indices_.data(), begin,
                                  end, xd, x_stride, width, tail_begin, alpha,
                                  yi);
    }
  }
}

void CsrMatrix::MultiplyAccumulateBlock(double alpha, const DenseMatrix& x,
                                        DenseMatrix* y) const {
  CAD_DCHECK(y->cols() == x.cols());
  BlockProductImpl<false>(alpha, x, 0, x.cols(), y);
}

void CsrMatrix::MultiplyAccumulateColumns(double alpha, const DenseMatrix& x,
                                          size_t x_begin,
                                          DenseMatrix* y) const {
  BlockProductImpl<false>(alpha, x, x_begin, y->cols(), y);
}

void CsrMatrix::MultiplyOverwriteBlock(double alpha, const DenseMatrix& x,
                                       DenseMatrix* y) const {
  CAD_DCHECK(y->cols() == x.cols());
  BlockProductImpl<true>(alpha, x, 0, x.cols(), y);
}

void CsrMatrix::MultiplyOverwriteLeading(double alpha, const DenseMatrix& x,
                                         size_t width, DenseMatrix* y) const {
  BlockProductImpl<true>(alpha, x, 0, width, y);
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
