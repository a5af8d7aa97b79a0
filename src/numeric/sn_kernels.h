// Vector kernels for the supernodal numeric path (sparse_factor.h).
//
// The blocked refactor spends its flops in one dense complex product per
// (source, target) supernode pair, plus unit-stride complex rank-1
// updates for the triangular solves and the target's own diagonal block;
// the blocked solve spends them in split real/imaginary solution planes.
// Those loops vectorize — but the library is built for baseline x86-64
// (SSE2, no FMA), so this one translation unit is compiled with AVX2+FMA
// enabled (see CMakeLists) and selected at runtime behind a cpuid check.
// Callers fall back to their portable scalar loops when the CPU (or the
// build) lacks the extensions, so results and portability never depend
// on them being present; the kernels compute the same split-complex
// expressions as the scalar fallbacks, differing only by FMA contraction
// and, in the product, by summation order (within the paths' documented
// rounding slack).
//
// Interleaved arrays are std::complex<double> storage viewed as
// double[2*m] (re, im pairs); `m` counts complex elements throughout.
#ifndef ACSTAB_NUMERIC_SN_KERNELS_H
#define ACSTAB_NUMERIC_SN_KERNELS_H

#include <cstddef>
#include <cstdint>

namespace acstab::numeric::snk {

/// True when the AVX2+FMA kernels below are compiled in and the CPU
/// supports them (checked once, cached).
[[nodiscard]] bool available() noexcept;

/// Interleaved complex rank-1 update: y -= l * (ur + i*ui).
void cax_sub(double* y, const double* l, double ur, double ui, std::size_t m) noexcept;

/// Fused rank-2 form: y -= l0*u0 + l1*u1 in a single pass over y (the
/// diagonal-block update of the blocked refactor).
void cax_sub2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept;

/// Dense complex product subtracted through a row map (the blocked
/// refactor's pair update): for r < m and j < n,
///   out(r, j) -= sum_p a(r, p) * b_j(p),
/// where a is m x k column-major (leading dimension lda), b[j] points at
/// column j's k contiguous values, and out(r, j) is element map[r] of
/// column base dst[j] for r < split and of dst[n + j] from split on (the
/// pair's rows above the target and those in its panel). All arrays are
/// interleaved complex; offsets count complex elements. Register-blocked
/// over rows and columns, so every element of a is loaded once per block
/// of columns; AVX-512 widens the row blocks when the CPU has it.
/// Repeated map entries accumulate. Reads no element of a outside its m
/// rows.
void zgemm_scatter_sub(double* const* dst, std::size_t split, const std::uint32_t* map,
                       const double* a, std::size_t lda, const double* const* b, std::size_t m,
                       std::size_t n, std::size_t k) noexcept;

/// In-place unit-lower triangular solve x_j <- l^-1 x_j for the n columns
/// x[j] (m contiguous interleaved values each): l is m x m column-major
/// with leading dimension ldl, and only its strict lower triangle is
/// read. Rows are solved two at a time against all earlier rows of two
/// columns at once (dot-product form), so the loads of l are shared
/// between columns; leading rows that are zero in every column of a
/// block stay exactly zero and cost nothing.
void ztrsm(double* const* x, const double* l, std::size_t ldl, std::size_t m,
           std::size_t n) noexcept;

/// Largest |re| + |im| over the m interleaved complex values of v, NaNs
/// ignored (0 when there are none): the refactor's growth witness.
[[nodiscard]] double max_l1(const double* v, std::size_t m) noexcept;

/// Split-plane complex rank-1 update (solve kernels): for r < m,
///   yr[r] op= lr*xr[r] - li*xi[r],  yi[r] op= lr*xi[r] + li*xr[r].
void plane_sub(double* yr, double* yi, const double* xr, const double* xi, double lr,
               double li, std::size_t m) noexcept;
void plane_add(double* yr, double* yi, const double* xr, const double* xi, double lr,
               double li, std::size_t m) noexcept;

/// In-place split-plane scaling by a complex constant (reciprocal
/// diagonal in the blocked back solve): xr,xi <- xr*dr - xi*di,
/// xr*di + xi*dr. Returns true when any resulting lane is nonzero.
bool plane_scale(double* xr, double* xi, double dr, double di, std::size_t m) noexcept;

} // namespace acstab::numeric::snk

#endif // ACSTAB_NUMERIC_SN_KERNELS_H
