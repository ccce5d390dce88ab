#ifndef CAD_LINALG_COLUMN_KERNELS_H_
#define CAD_LINALG_COLUMN_KERNELS_H_

#include <cstddef>
#include <type_traits>

namespace cad {

/// Widest block the compile-time-width column kernels take: the SpMM
/// register-accumulator width and the lockstep CG's widest column group.
inline constexpr size_t kMaxKernelWidth = 16;

/// Calls `f(std::integral_constant<size_t, W>{})` with W == width for
/// width in [1, kMaxKernelWidth], and does nothing otherwise. Kernels written
/// against the constant keep their W per-column accumulators in registers
/// and loop over exactly the live columns, with no index indirection.
template <typename F>
inline void DispatchWidth(size_t width, F&& f) {
  switch (width) {
    case 1: f(std::integral_constant<size_t, 1>{}); return;
    case 2: f(std::integral_constant<size_t, 2>{}); return;
    case 3: f(std::integral_constant<size_t, 3>{}); return;
    case 4: f(std::integral_constant<size_t, 4>{}); return;
    case 5: f(std::integral_constant<size_t, 5>{}); return;
    case 6: f(std::integral_constant<size_t, 6>{}); return;
    case 7: f(std::integral_constant<size_t, 7>{}); return;
    case 8: f(std::integral_constant<size_t, 8>{}); return;
    case 9: f(std::integral_constant<size_t, 9>{}); return;
    case 10: f(std::integral_constant<size_t, 10>{}); return;
    case 11: f(std::integral_constant<size_t, 11>{}); return;
    case 12: f(std::integral_constant<size_t, 12>{}); return;
    case 13: f(std::integral_constant<size_t, 13>{}); return;
    case 14: f(std::integral_constant<size_t, 14>{}); return;
    case 15: f(std::integral_constant<size_t, 15>{}); return;
    case 16: f(std::integral_constant<size_t, 16>{}); return;
    default: return;
  }
}

/// dots[c] += sum over rows i of a[i][c] * b[i][c], for c < W: column dot
/// products of two row-major blocks read through their row strides. Each
/// column sums its products in ascending row order, one `+=` per row, which
/// is the order vector_ops' Dot uses, so dots are bit-identical to W
/// separate Dot calls that start from the same values.
template <size_t W>
inline void AccumulateColumnDots(size_t rows, const double* a,
                                 size_t a_stride, const double* b,
                                 size_t b_stride, double* dots) {
  double sums[W] = {};
  for (size_t c = 0; c < W; ++c) sums[c] = dots[c];
  for (size_t i = 0; i < rows; ++i) {
    const double* ai = a + i * a_stride;
    const double* bi = b + i * b_stride;
    for (size_t c = 0; c < W; ++c) sums[c] += ai[c] * bi[c];
  }
  for (size_t c = 0; c < W; ++c) dots[c] = sums[c];
}

}  // namespace cad

#endif  // CAD_LINALG_COLUMN_KERNELS_H_
