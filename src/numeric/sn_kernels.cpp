// AVX2+FMA bodies for the supernodal vector kernels. This translation
// unit is compiled with -mavx2 -mfma when the compiler accepts them
// (CMakeLists); everything here stays behind the runtime cpuid gate in
// available(), so linking these bodies into a baseline binary is safe.

// GCC 12 false positive (GCC bug 105593): -Wmaybe-uninitialized on the
// self-initialized '__Y' of _mm512_undefined_pd, inlined into every
// _mm512_permute_pd. Off for this file, before the intrinsics header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "numeric/sn_kernels.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define ACSTAB_SNK_VEC 1
#else
#define ACSTAB_SNK_VEC 0
#endif

namespace acstab::numeric::snk {

bool available() noexcept
{
#if ACSTAB_SNK_VEC && (defined(__x86_64__) || defined(__i386__))
    static const bool ok = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return ok;
#else
    return false;
#endif
}

#if ACSTAB_SNK_VEC

namespace {

    /// res = l * u for two interleaved complex lanes per vector:
    /// [lr*ur - li*ui, lr*ui + li*ur] via one mul and one fmaddsub
    /// (even lanes subtract, odd lanes add).
    inline __m256d cmul2(__m256d l, __m256d vre, __m256d vim) noexcept
    {
        const __m256d lswap = _mm256_permute_pd(l, 0x5); // [li, lr] pairs
        return _mm256_fmaddsub_pd(l, vre, _mm256_mul_pd(lswap, vim));
    }

    // The product kernels accumulate a*br and a*bi separately over the
    // inner dimension (a interleaved, br/bi the broadcast real and
    // imaginary parts of one b element) and join once per block:
    // a*b = [xr.re - xi.im, xr.im + xi.re].
    inline __m256d zjoin(__m256d xr, __m256d xi) noexcept
    {
        return _mm256_addsub_pd(xr, _mm256_permute_pd(xi, 0x5));
    }

    inline __m128d zjoin(__m128d xr, __m128d xi) noexcept
    {
        return _mm_addsub_pd(xr, _mm_permute_pd(xi, 0x1));
    }

    /// Where the rows of NR product columns go: row r of column j below
    /// `split` into column base lo[j], from `split` on into hi[j], at
    /// offset map[r] (complex elements), where it is subtracted. The
    /// bases live in registers: the vector stores may alias anything, so
    /// anything read through memory would be reloaded after each one.
    template <int NR>
    struct scatter_target {
        double* lo[NR];
        double* hi[NR];
        std::size_t split;
        const std::uint32_t* map;

        scatter_target(double* const* dst, std::size_t n, std::size_t split_,
                       const std::uint32_t* map_) noexcept
            : split(split_), map(map_)
        {
            for (int j = 0; j < NR; ++j) {
                lo[j] = dst[j];
                hi[j] = dst[n + j];
            }
        }

        void sub(int j, std::size_t r, __m128d v) const noexcept
        {
            double* p = (r < split ? lo[j] : hi[j]) + 2 * static_cast<std::size_t>(map[r]);
            _mm_storeu_pd(p, _mm_sub_pd(_mm_loadu_pd(p), v));
        }
    };

    /// Rows [r, r + 2V) of NR columns of the product: V vectors of two
    /// complex rows each, 4 * NR * V accumulators held in registers.
    template <int NR, int V>
    inline void zgemm_block(const scatter_target<NR>& out, const double* a, std::size_t lda,
                            const double* const* b, std::size_t k, std::size_t r) noexcept
    {
        __m256d xr[NR][V];
        __m256d xi[NR][V];
#pragma GCC unroll 4
        for (int j = 0; j < NR; ++j)
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                xr[j][v] = xi[j][v] = _mm256_setzero_pd();
        const double* ap = a + 2 * r;
        for (std::size_t p = 0; p < k; ++p, ap += 2 * lda) {
            __m256d av[V];
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v)
                av[v] = _mm256_loadu_pd(ap + 4 * v);
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const double* bp = b[j] + 2 * p;
                const __m256d br = _mm256_broadcast_sd(bp);
#pragma GCC unroll 2
                for (int v = 0; v < V; ++v)
                    xr[j][v] = _mm256_fmadd_pd(av[v], br, xr[j][v]);
                const __m256d bi = _mm256_broadcast_sd(bp + 1);
#pragma GCC unroll 2
                for (int v = 0; v < V; ++v)
                    xi[j][v] = _mm256_fmadd_pd(av[v], bi, xi[j][v]);
            }
        }
#pragma GCC unroll 4
        for (int j = 0; j < NR; ++j)
#pragma GCC unroll 2
            for (int v = 0; v < V; ++v) {
                const __m256d res = zjoin(xr[j][v], xi[j][v]);
                out.sub(j, r + 2 * v, _mm256_castpd256_pd128(res));
                out.sub(j, r + 2 * v + 1, _mm256_extractf128_pd(res, 1));
            }
    }

    /// NR columns of the product: rows in blocks of four, then the tail.
    template <int NR>
    void zgemm_cols(double* const* dst, std::size_t n, std::size_t split,
                    const std::uint32_t* map, const double* a, std::size_t lda,
                    const double* const* b, std::size_t m, std::size_t k) noexcept
    {
        const scatter_target<NR> out(dst, n, split, map);
        std::size_t r = 0;
        for (; r + 4 <= m; r += 4)
            zgemm_block<NR, 2>(out, a, lda, b, k, r);
        if (r + 2 <= m) {
            zgemm_block<NR, 1>(out, a, lda, b, k, r);
            r += 2;
        }
        if (r < m) {
            __m128d xr[NR];
            __m128d xi[NR];
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                xr[j] = xi[j] = _mm_setzero_pd();
            const double* ap = a + 2 * r;
            for (std::size_t p = 0; p < k; ++p, ap += 2 * lda) {
                const __m128d av = _mm_loadu_pd(ap);
#pragma GCC unroll 4
                for (int j = 0; j < NR; ++j) {
                    const double* bp = b[j] + 2 * p;
                    xr[j] = _mm_fmadd_pd(av, _mm_set1_pd(bp[0]), xr[j]);
                    xi[j] = _mm_fmadd_pd(av, _mm_set1_pd(bp[1]), xi[j]);
                }
            }
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                out.sub(j, r, zjoin(xr[j], xi[j]));
        }
    }

    /// ztrsm on NR columns. Row pair (r, r + 1) first subtracts the dot
    /// product of l's rows with the solved rows above (one vector holds
    /// both rows), then resolves l(r + 1, r) in scalar arithmetic; an odd
    /// last row runs the same on 128-bit vectors.
    template <int NR>
    void ztrsm_cols(double* const* x, const double* l, std::size_t ldl, std::size_t m) noexcept
    {
        const auto zero_row = [x](std::size_t i) {
            for (int j = 0; j < NR; ++j)
                if (x[j][2 * i] != 0.0 || x[j][2 * i + 1] != 0.0)
                    return false;
            return true;
        };
        std::size_t i0 = 0;
        while (i0 < m && zero_row(i0))
            ++i0;
        std::size_t r = i0;
        for (; r + 2 <= m; r += 2) {
            __m256d xr[NR];
            __m256d xi[NR];
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                xr[j] = xi[j] = _mm256_setzero_pd();
            for (std::size_t i = i0; i < r; ++i) {
                const __m256d lv = _mm256_loadu_pd(l + 2 * (i * ldl + r));
#pragma GCC unroll 4
                for (int j = 0; j < NR; ++j) {
                    xr[j] = _mm256_fmadd_pd(lv, _mm256_broadcast_sd(x[j] + 2 * i), xr[j]);
                    xi[j] = _mm256_fmadd_pd(lv, _mm256_broadcast_sd(x[j] + 2 * i + 1), xi[j]);
                }
            }
            const double* l10 = l + 2 * (r * ldl + r + 1);
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                double* xp = x[j] + 2 * r;
                alignas(32) double d[4];
                _mm256_store_pd(d, _mm256_sub_pd(_mm256_loadu_pd(xp), zjoin(xr[j], xi[j])));
                xp[0] = d[0];
                xp[1] = d[1];
                xp[2] = d[2] - (l10[0] * d[0] - l10[1] * d[1]);
                xp[3] = d[3] - (l10[0] * d[1] + l10[1] * d[0]);
            }
        }
        if (r < m) {
            __m128d xr[NR];
            __m128d xi[NR];
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                xr[j] = xi[j] = _mm_setzero_pd();
            for (std::size_t i = i0; i < r; ++i) {
                const __m128d lv = _mm_loadu_pd(l + 2 * (i * ldl + r));
#pragma GCC unroll 4
                for (int j = 0; j < NR; ++j) {
                    xr[j] = _mm_fmadd_pd(lv, _mm_set1_pd(x[j][2 * i]), xr[j]);
                    xi[j] = _mm_fmadd_pd(lv, _mm_set1_pd(x[j][2 * i + 1]), xi[j]);
                }
            }
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                double* xp = x[j] + 2 * r;
                _mm_storeu_pd(xp, _mm_sub_pd(_mm_loadu_pd(xp), zjoin(xr[j], xi[j])));
            }
        }
    }

} // namespace

// AVX-512 widenings of the same kernels, selected per call for runs of 8+
// complex elements when the CPU has AVX512F (the per-function target
// attribute keeps the rest of the TU at AVX2, so one binary carries both
// and cpuid picks at runtime). The vector bodies compute the identical
// expressions with the same FMA contraction — lane width changes nothing
// about per-element rounding — and tails are handled with masked ops.
#if defined(__x86_64__)
#define ACSTAB_SNK_512 1

namespace {

    bool wide512() noexcept
    {
        static const bool ok = __builtin_cpu_supports("avx512f");
        return ok;
    }

    __attribute__((target("avx512f"))) inline __m512d cmul4(__m512d l, __m512d vre,
                                                            __m512d vim) noexcept
    {
        const __m512d lswap = _mm512_permute_pd(l, 0x55); // [li, lr] pairs
        return _mm512_fmaddsub_pd(l, vre, _mm512_mul_pd(lswap, vim));
    }

    __attribute__((target("avx512f"))) void cax_sub_512(double* y, const double* l,
                                                        double ur, double ui,
                                                        std::size_t end) noexcept
    {
        const __m512d vre = _mm512_set1_pd(ur);
        const __m512d vim = _mm512_set1_pd(ui);
        std::size_t d = 0;
        for (; d + 8 <= end; d += 8) {
            const __m512d yv = _mm512_loadu_pd(y + d);
            const __m512d lv = _mm512_loadu_pd(l + d);
            _mm512_storeu_pd(y + d, _mm512_sub_pd(yv, cmul4(lv, vre, vim)));
        }
        if (d < end) {
            const __mmask8 k = static_cast<__mmask8>((1u << (end - d)) - 1);
            const __m512d yv = _mm512_maskz_loadu_pd(k, y + d);
            const __m512d lv = _mm512_maskz_loadu_pd(k, l + d);
            _mm512_mask_storeu_pd(y + d, k, _mm512_sub_pd(yv, cmul4(lv, vre, vim)));
        }
    }

    __attribute__((target("avx512f"))) void cax_sub2_512(double* y, const double* l0,
                                                         double u0r, double u0i,
                                                         const double* l1, double u1r,
                                                         double u1i, std::size_t end) noexcept
    {
        const __m512d v0re = _mm512_set1_pd(u0r);
        const __m512d v0im = _mm512_set1_pd(u0i);
        const __m512d v1re = _mm512_set1_pd(u1r);
        const __m512d v1im = _mm512_set1_pd(u1i);
        std::size_t d = 0;
        for (; d + 8 <= end; d += 8) {
            const __m512d p0 = cmul4(_mm512_loadu_pd(l0 + d), v0re, v0im);
            const __m512d p1 = cmul4(_mm512_loadu_pd(l1 + d), v1re, v1im);
            _mm512_storeu_pd(y + d,
                             _mm512_sub_pd(_mm512_loadu_pd(y + d), _mm512_add_pd(p0, p1)));
        }
        if (d < end) {
            const __mmask8 k = static_cast<__mmask8>((1u << (end - d)) - 1);
            const __m512d p0 = cmul4(_mm512_maskz_loadu_pd(k, l0 + d), v0re, v0im);
            const __m512d p1 = cmul4(_mm512_maskz_loadu_pd(k, l1 + d), v1re, v1im);
            const __m512d yv = _mm512_maskz_loadu_pd(k, y + d);
            _mm512_mask_storeu_pd(y + d, k, _mm512_sub_pd(yv, _mm512_add_pd(p0, p1)));
        }
    }

    __attribute__((target("avx512f"))) void plane_sub_512(double* yr, double* yi,
                                                          const double* xr, const double* xi,
                                                          double lr, double li,
                                                          std::size_t m) noexcept
    {
        const __m512d vlr = _mm512_set1_pd(lr);
        const __m512d vli = _mm512_set1_pd(li);
        std::size_t r = 0;
        for (; r + 8 <= m; r += 8) {
            const __m512d ar = _mm512_loadu_pd(xr + r);
            const __m512d ai = _mm512_loadu_pd(xi + r);
            const __m512d tr = _mm512_fmsub_pd(vlr, ar, _mm512_mul_pd(vli, ai));
            const __m512d ti = _mm512_fmadd_pd(vlr, ai, _mm512_mul_pd(vli, ar));
            _mm512_storeu_pd(yr + r, _mm512_sub_pd(_mm512_loadu_pd(yr + r), tr));
            _mm512_storeu_pd(yi + r, _mm512_sub_pd(_mm512_loadu_pd(yi + r), ti));
        }
        if (r < m) {
            const __mmask8 k = static_cast<__mmask8>((1u << (m - r)) - 1);
            const __m512d ar = _mm512_maskz_loadu_pd(k, xr + r);
            const __m512d ai = _mm512_maskz_loadu_pd(k, xi + r);
            const __m512d tr = _mm512_fmsub_pd(vlr, ar, _mm512_mul_pd(vli, ai));
            const __m512d ti = _mm512_fmadd_pd(vlr, ai, _mm512_mul_pd(vli, ar));
            const __m512d yrv = _mm512_maskz_loadu_pd(k, yr + r);
            const __m512d yiv = _mm512_maskz_loadu_pd(k, yi + r);
            _mm512_mask_storeu_pd(yr + r, k, _mm512_sub_pd(yrv, tr));
            _mm512_mask_storeu_pd(yi + r, k, _mm512_sub_pd(yiv, ti));
        }
    }

    __attribute__((target("avx512f"))) void plane_add_512(double* yr, double* yi,
                                                          const double* xr, const double* xi,
                                                          double lr, double li,
                                                          std::size_t m) noexcept
    {
        const __m512d vlr = _mm512_set1_pd(lr);
        const __m512d vli = _mm512_set1_pd(li);
        std::size_t r = 0;
        for (; r + 8 <= m; r += 8) {
            const __m512d ar = _mm512_loadu_pd(xr + r);
            const __m512d ai = _mm512_loadu_pd(xi + r);
            const __m512d tr = _mm512_fmsub_pd(vlr, ar, _mm512_mul_pd(vli, ai));
            const __m512d ti = _mm512_fmadd_pd(vlr, ai, _mm512_mul_pd(vli, ar));
            _mm512_storeu_pd(yr + r, _mm512_add_pd(_mm512_loadu_pd(yr + r), tr));
            _mm512_storeu_pd(yi + r, _mm512_add_pd(_mm512_loadu_pd(yi + r), ti));
        }
        if (r < m) {
            const __mmask8 k = static_cast<__mmask8>((1u << (m - r)) - 1);
            const __m512d ar = _mm512_maskz_loadu_pd(k, xr + r);
            const __m512d ai = _mm512_maskz_loadu_pd(k, xi + r);
            const __m512d tr = _mm512_fmsub_pd(vlr, ar, _mm512_mul_pd(vli, ai));
            const __m512d ti = _mm512_fmadd_pd(vlr, ai, _mm512_mul_pd(vli, ar));
            const __m512d yrv = _mm512_maskz_loadu_pd(k, yr + r);
            const __m512d yiv = _mm512_maskz_loadu_pd(k, yi + r);
            _mm512_mask_storeu_pd(yr + r, k, _mm512_add_pd(yrv, tr));
            _mm512_mask_storeu_pd(yi + r, k, _mm512_add_pd(yiv, ti));
        }
    }

    /// NR columns of the product with rows in blocks of eight (two
    /// vectors of four complex rows); the last block masks its loads, so
    /// no row of a past m is read, and leaves only its valid rows.
    template <int NR>
    __attribute__((target("avx512f"))) void
    zgemm_cols_512(double* const* dst, std::size_t n, std::size_t split,
                   const std::uint32_t* map, const double* a, std::size_t lda,
                   const double* const* b, std::size_t m, std::size_t k) noexcept
    {
        const scatter_target<NR> out(dst, n, split, map);
        const __m512d one = _mm512_set1_pd(1.0);
        for (std::size_t r = 0; r < m; r += 8) {
            const std::size_t rows = std::min<std::size_t>(8, m - r);
            const std::size_t len = 2 * rows; // doubles
            const __mmask8 k0 = len >= 8 ? 0xFF : static_cast<__mmask8>((1u << len) - 1);
            const __mmask8 k1 = len > 8 ? static_cast<__mmask8>((1u << (len - 8)) - 1) : 0;
            __m512d xr[NR][2];
            __m512d xi[NR][2];
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                xr[j][0] = xr[j][1] = xi[j][0] = xi[j][1] = _mm512_setzero_pd();
            const double* ap = a + 2 * r;
            for (std::size_t p = 0; p < k; ++p, ap += 2 * lda) {
                const __m512d a0 = _mm512_maskz_loadu_pd(k0, ap);
                const __m512d a1 = _mm512_maskz_loadu_pd(k1, ap + 8);
#pragma GCC unroll 4
                for (int j = 0; j < NR; ++j) {
                    const double* bp = b[j] + 2 * p;
                    const __m512d br = _mm512_set1_pd(bp[0]);
                    xr[j][0] = _mm512_fmadd_pd(a0, br, xr[j][0]);
                    xr[j][1] = _mm512_fmadd_pd(a1, br, xr[j][1]);
                    const __m512d bi = _mm512_set1_pd(bp[1]);
                    xi[j][0] = _mm512_fmadd_pd(a0, bi, xi[j][0]);
                    xi[j][1] = _mm512_fmadd_pd(a1, bi, xi[j][1]);
                }
            }
            // Join as in zjoin: even lanes xr - swap(xi), odd lanes
            // xr + swap(xi) (fmaddsub with a unit factor is exact).
#pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 2
                for (int v = 0; v < 2; ++v) {
                    const std::size_t r0 = r + 4 * static_cast<std::size_t>(v);
                    if (r0 >= r + rows)
                        break;
                    const __m512d res
                        = _mm512_fmaddsub_pd(xr[j][v], one, _mm512_permute_pd(xi[j][v], 0x55));
                    const __m256d lo = _mm512_castpd512_pd256(res);
                    const __m256d hi = _mm512_extractf64x4_pd(res, 1);
                    const std::size_t left = r + rows - r0;
                    out.sub(j, r0, _mm256_castpd256_pd128(lo));
                    if (left > 1)
                        out.sub(j, r0 + 1, _mm256_extractf128_pd(lo, 1));
                    if (left > 2)
                        out.sub(j, r0 + 2, _mm256_castpd256_pd128(hi));
                    if (left > 3)
                        out.sub(j, r0 + 3, _mm256_extractf128_pd(hi, 1));
                }
            }
        }
    }

} // namespace

#else
#define ACSTAB_SNK_512 0
#endif // __x86_64__

void cax_sub(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return cax_sub_512(y, l, ur, ui, 2 * m);
#endif
    const __m256d vre = _mm256_set1_pd(ur);
    const __m256d vim = _mm256_set1_pd(ui);
    std::size_t d = 0;
    const std::size_t end = 2 * m;
    for (; d + 4 <= end; d += 4) {
        const __m256d yv = _mm256_loadu_pd(y + d);
        const __m256d lv = _mm256_loadu_pd(l + d);
        _mm256_storeu_pd(y + d, _mm256_sub_pd(yv, cmul2(lv, vre, vim)));
    }
    for (; d < end; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] -= lr * ur - li * ui;
        y[d + 1] -= lr * ui + li * ur;
    }
}

void cax_sub2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return cax_sub2_512(y, l0, u0r, u0i, l1, u1r, u1i, 2 * m);
#endif
    const __m256d v0re = _mm256_set1_pd(u0r);
    const __m256d v0im = _mm256_set1_pd(u0i);
    const __m256d v1re = _mm256_set1_pd(u1r);
    const __m256d v1im = _mm256_set1_pd(u1i);
    std::size_t d = 0;
    const std::size_t end = 2 * m;
    for (; d + 4 <= end; d += 4) {
        const __m256d p0 = cmul2(_mm256_loadu_pd(l0 + d), v0re, v0im);
        const __m256d p1 = cmul2(_mm256_loadu_pd(l1 + d), v1re, v1im);
        _mm256_storeu_pd(y + d,
                         _mm256_sub_pd(_mm256_loadu_pd(y + d), _mm256_add_pd(p0, p1)));
    }
    for (; d < end; d += 2) {
        const double l0r = l0[d];
        const double l0i = l0[d + 1];
        const double l1r = l1[d];
        const double l1i = l1[d + 1];
        y[d] -= (l0r * u0r - l0i * u0i) + (l1r * u1r - l1i * u1i);
        y[d + 1] -= (l0r * u0i + l0i * u0r) + (l1r * u1i + l1i * u1r);
    }
}

void plane_sub(double* yr, double* yi, const double* xr, const double* xi, double lr,
               double li, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return plane_sub_512(yr, yi, xr, xi, lr, li, m);
#endif
    const __m256d vlr = _mm256_set1_pd(lr);
    const __m256d vli = _mm256_set1_pd(li);
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        const __m256d ar = _mm256_loadu_pd(xr + r);
        const __m256d ai = _mm256_loadu_pd(xi + r);
        // yr -= lr*ar - li*ai ; yi -= lr*ai + li*ar
        __m256d tr = _mm256_fmsub_pd(vlr, ar, _mm256_mul_pd(vli, ai));
        __m256d ti = _mm256_fmadd_pd(vlr, ai, _mm256_mul_pd(vli, ar));
        _mm256_storeu_pd(yr + r, _mm256_sub_pd(_mm256_loadu_pd(yr + r), tr));
        _mm256_storeu_pd(yi + r, _mm256_sub_pd(_mm256_loadu_pd(yi + r), ti));
    }
    for (; r < m; ++r) {
        const double ar = xr[r];
        const double ai = xi[r];
        yr[r] -= lr * ar - li * ai;
        yi[r] -= lr * ai + li * ar;
    }
}

void plane_add(double* yr, double* yi, const double* xr, const double* xi, double lr,
               double li, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return plane_add_512(yr, yi, xr, xi, lr, li, m);
#endif
    const __m256d vlr = _mm256_set1_pd(lr);
    const __m256d vli = _mm256_set1_pd(li);
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        const __m256d ar = _mm256_loadu_pd(xr + r);
        const __m256d ai = _mm256_loadu_pd(xi + r);
        __m256d tr = _mm256_fmsub_pd(vlr, ar, _mm256_mul_pd(vli, ai));
        __m256d ti = _mm256_fmadd_pd(vlr, ai, _mm256_mul_pd(vli, ar));
        _mm256_storeu_pd(yr + r, _mm256_add_pd(_mm256_loadu_pd(yr + r), tr));
        _mm256_storeu_pd(yi + r, _mm256_add_pd(_mm256_loadu_pd(yi + r), ti));
    }
    for (; r < m; ++r) {
        const double ar = xr[r];
        const double ai = xi[r];
        yr[r] += lr * ar - li * ai;
        yi[r] += lr * ai + li * ar;
    }
}

bool plane_scale(double* xr, double* xi, double dr, double di, std::size_t m) noexcept
{
    const __m256d vdr = _mm256_set1_pd(dr);
    const __m256d vdi = _mm256_set1_pd(di);
    __m256d nz = _mm256_setzero_pd();
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        const __m256d ar = _mm256_loadu_pd(xr + r);
        const __m256d ai = _mm256_loadu_pd(xi + r);
        const __m256d vr = _mm256_fmsub_pd(vdr, ar, _mm256_mul_pd(vdi, ai));
        const __m256d vi = _mm256_fmadd_pd(vdr, ai, _mm256_mul_pd(vdi, ar));
        _mm256_storeu_pd(xr + r, vr);
        _mm256_storeu_pd(xi + r, vi);
        // Accumulate |vr| | |vi| bit patterns; any nonzero lane leaves a
        // set bit (signed zeros OR to zero, matching v != 0.0).
        nz = _mm256_or_pd(nz, _mm256_or_pd(_mm256_andnot_pd(_mm256_set1_pd(-0.0), vr),
                                           _mm256_andnot_pd(_mm256_set1_pd(-0.0), vi)));
    }
    bool any = _mm256_movemask_pd(_mm256_cmp_pd(nz, _mm256_setzero_pd(), _CMP_NEQ_UQ)) != 0;
    for (; r < m; ++r) {
        const double ar = xr[r];
        const double ai = xi[r];
        const double vr = dr * ar - di * ai;
        const double vi = dr * ai + di * ar;
        xr[r] = vr;
        xi[r] = vi;
        any = any || vr != 0.0 || vi != 0.0;
    }
    return any;
}

void zgemm_scatter_sub(double* const* dst, std::size_t split, const std::uint32_t* map,
                       const double* a, std::size_t lda, const double* const* b, std::size_t m,
                       std::size_t n, std::size_t k) noexcept
{
    std::size_t j = 0;
#if ACSTAB_SNK_512
    if (m >= 8 && wide512()) {
        for (; j + 4 <= n; j += 4)
            zgemm_cols_512<4>(dst + j, n, split, map, a, lda, b + j, m, k);
        switch (n - j) {
        case 3:
            return zgemm_cols_512<3>(dst + j, n, split, map, a, lda, b + j, m, k);
        case 2:
            return zgemm_cols_512<2>(dst + j, n, split, map, a, lda, b + j, m, k);
        case 1:
            return zgemm_cols_512<1>(dst + j, n, split, map, a, lda, b + j, m, k);
        default:
            return;
        }
    }
#endif
    for (; j + 2 <= n; j += 2)
        zgemm_cols<2>(dst + j, n, split, map, a, lda, b + j, m, k);
    if (j < n)
        zgemm_cols<1>(dst + j, n, split, map, a, lda, b + j, m, k);
}

double max_l1(const double* v, std::size_t m) noexcept
{
    // Four independent running maxima of |re| + |im| (each value lands
    // in both lanes of its pair). max_pd(x, acc) keeps acc when x is NaN.
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
                      _mm256_setzero_pd()};
    const std::size_t end = 2 * m;
    std::size_t d = 0;
    for (; d + 16 <= end; d += 16)
        for (int u = 0; u < 4; ++u) {
            const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(v + d + 4 * u));
            acc[u] = _mm256_max_pd(_mm256_add_pd(a, _mm256_permute_pd(a, 0x5)), acc[u]);
        }
    for (; d + 4 <= end; d += 4) {
        const __m256d a = _mm256_andnot_pd(sign, _mm256_loadu_pd(v + d));
        acc[0] = _mm256_max_pd(_mm256_add_pd(a, _mm256_permute_pd(a, 0x5)), acc[0]);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, _mm256_max_pd(_mm256_max_pd(acc[0], acc[1]),
                                         _mm256_max_pd(acc[2], acc[3])));
    double best = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
    for (; d < end; d += 2) {
        const double mag = std::abs(v[d]) + std::abs(v[d + 1]);
        if (mag > best)
            best = mag;
    }
    return best;
}

void ztrsm(double* const* x, const double* l, std::size_t ldl, std::size_t m,
           std::size_t n) noexcept
{
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2)
        ztrsm_cols<2>(x + j, l, ldl, m);
    if (j < n)
        ztrsm_cols<1>(x + j, l, ldl, m);
}

#else // !ACSTAB_SNK_VEC — link stubs: available() is false, so callers
      // never reach these and run their own portable loops instead.

void cax_sub(double*, const double*, double, double, std::size_t) noexcept {}
void cax_sub2(double*, const double*, double, double, const double*, double, double,
              std::size_t) noexcept
{
}
void plane_sub(double*, double*, const double*, const double*, double, double,
               std::size_t) noexcept
{
}
void plane_add(double*, double*, const double*, const double*, double, double,
               std::size_t) noexcept
{
}
bool plane_scale(double*, double*, double, double, std::size_t) noexcept { return false; }
void zgemm_scatter_sub(double* const*, std::size_t, const std::uint32_t*, const double*,
                       std::size_t, const double* const*, std::size_t, std::size_t,
                       std::size_t) noexcept
{
}
void ztrsm(double* const*, const double*, std::size_t, std::size_t, std::size_t) noexcept {}
double max_l1(const double*, std::size_t) noexcept { return 0.0; }

#endif // ACSTAB_SNK_VEC

} // namespace acstab::numeric::snk
