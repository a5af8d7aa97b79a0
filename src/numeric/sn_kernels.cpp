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

    __attribute__((target("avx512f"))) void cax_set2_512(double* y, const double* l0,
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
            _mm512_storeu_pd(y + d, _mm512_add_pd(p0, p1));
        }
        if (d < end) {
            const __mmask8 k = static_cast<__mmask8>((1u << (end - d)) - 1);
            const __m512d p0 = cmul4(_mm512_maskz_loadu_pd(k, l0 + d), v0re, v0im);
            const __m512d p1 = cmul4(_mm512_maskz_loadu_pd(k, l1 + d), v1re, v1im);
            _mm512_mask_storeu_pd(y + d, k, _mm512_add_pd(p0, p1));
        }
    }

    __attribute__((target("avx512f"))) void cax_add2_512(double* y, const double* l0,
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
                             _mm512_add_pd(_mm512_loadu_pd(y + d), _mm512_add_pd(p0, p1)));
        }
        if (d < end) {
            const __mmask8 k = static_cast<__mmask8>((1u << (end - d)) - 1);
            const __m512d p0 = cmul4(_mm512_maskz_loadu_pd(k, l0 + d), v0re, v0im);
            const __m512d p1 = cmul4(_mm512_maskz_loadu_pd(k, l1 + d), v1re, v1im);
            const __m512d yv = _mm512_maskz_loadu_pd(k, y + d);
            _mm512_mask_storeu_pd(y + d, k, _mm512_add_pd(yv, _mm512_add_pd(p0, p1)));
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

void cax_set(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
    const __m256d vre = _mm256_set1_pd(ur);
    const __m256d vim = _mm256_set1_pd(ui);
    std::size_t d = 0;
    const std::size_t end = 2 * m;
    for (; d + 4 <= end; d += 4)
        _mm256_storeu_pd(y + d, cmul2(_mm256_loadu_pd(l + d), vre, vim));
    for (; d < end; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] = lr * ur - li * ui;
        y[d + 1] = lr * ui + li * ur;
    }
}

void cax_add(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
    const __m256d vre = _mm256_set1_pd(ur);
    const __m256d vim = _mm256_set1_pd(ui);
    std::size_t d = 0;
    const std::size_t end = 2 * m;
    for (; d + 4 <= end; d += 4) {
        const __m256d yv = _mm256_loadu_pd(y + d);
        const __m256d lv = _mm256_loadu_pd(l + d);
        _mm256_storeu_pd(y + d, _mm256_add_pd(yv, cmul2(lv, vre, vim)));
    }
    for (; d < end; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] += lr * ur - li * ui;
        y[d + 1] += lr * ui + li * ur;
    }
}

void cax_set2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return cax_set2_512(y, l0, u0r, u0i, l1, u1r, u1i, 2 * m);
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
        _mm256_storeu_pd(y + d, _mm256_add_pd(p0, p1));
    }
    for (; d < end; d += 2) {
        const double l0r = l0[d];
        const double l0i = l0[d + 1];
        const double l1r = l1[d];
        const double l1i = l1[d + 1];
        y[d] = (l0r * u0r - l0i * u0i) + (l1r * u1r - l1i * u1i);
        y[d + 1] = (l0r * u0i + l0i * u0r) + (l1r * u1i + l1i * u1r);
    }
}

void cax_add2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
#if ACSTAB_SNK_512
    if (m >= 8 && wide512())
        return cax_add2_512(y, l0, u0r, u0i, l1, u1r, u1i, 2 * m);
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
                         _mm256_add_pd(_mm256_loadu_pd(y + d), _mm256_add_pd(p0, p1)));
    }
    for (; d < end; d += 2) {
        const double l0r = l0[d];
        const double l0i = l0[d + 1];
        const double l1r = l1[d];
        const double l1i = l1[d + 1];
        y[d] += (l0r * u0r - l0i * u0i) + (l1r * u1r - l1i * u1i);
        y[d + 1] += (l0r * u0i + l0i * u0r) + (l1r * u1i + l1i * u1r);
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

#else // !ACSTAB_SNK_VEC — portable bodies, never selected (available() is false)

void cax_sub(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] -= lr * ur - li * ui;
        y[d + 1] -= lr * ui + li * ur;
    }
}

void cax_set(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] = lr * ur - li * ui;
        y[d + 1] = lr * ui + li * ur;
    }
}

void cax_add(double* y, const double* l, double ur, double ui, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
        const double lr = l[d];
        const double li = l[d + 1];
        y[d] += lr * ur - li * ui;
        y[d + 1] += lr * ui + li * ur;
    }
}

void cax_set2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
        const double l0r = l0[d];
        const double l0i = l0[d + 1];
        const double l1r = l1[d];
        const double l1i = l1[d + 1];
        y[d] = (l0r * u0r - l0i * u0i) + (l1r * u1r - l1i * u1i);
        y[d + 1] = (l0r * u0i + l0i * u0r) + (l1r * u1i + l1i * u1r);
    }
}

void cax_add2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
        const double l0r = l0[d];
        const double l0i = l0[d + 1];
        const double l1r = l1[d];
        const double l1i = l1[d + 1];
        y[d] += (l0r * u0r - l0i * u0i) + (l1r * u1r - l1i * u1i);
        y[d + 1] += (l0r * u0i + l0i * u0r) + (l1r * u1i + l1i * u1r);
    }
}

void cax_sub2(double* y, const double* l0, double u0r, double u0i, const double* l1,
              double u1r, double u1i, std::size_t m) noexcept
{
    for (std::size_t d = 0; d < 2 * m; d += 2) {
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
    for (std::size_t r = 0; r < m; ++r) {
        const double ar = xr[r];
        const double ai = xi[r];
        yr[r] -= lr * ar - li * ai;
        yi[r] -= lr * ai + li * ar;
    }
}

void plane_add(double* yr, double* yi, const double* xr, const double* xi, double lr,
               double li, std::size_t m) noexcept
{
    for (std::size_t r = 0; r < m; ++r) {
        const double ar = xr[r];
        const double ai = xi[r];
        yr[r] += lr * ar - li * ai;
        yi[r] += lr * ai + li * ar;
    }
}

bool plane_scale(double* xr, double* xi, double dr, double di, std::size_t m) noexcept
{
    bool any = false;
    for (std::size_t r = 0; r < m; ++r) {
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

#endif // ACSTAB_SNK_VEC

} // namespace acstab::numeric::snk
