#include "numeric/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace acstab::numeric {

namespace {

    [[nodiscard]] double sign_like(double magnitude, double sign_source) noexcept
    {
        return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
    }

} // namespace

void balance(dense_matrix<real>& a)
{
    const std::size_t n = a.rows();
    constexpr double radix = 2.0;
    constexpr double sqrdx = radix * radix;

    bool done = false;
    while (!done) {
        done = true;
        for (std::size_t i = 0; i < n; ++i) {
            double col = 0.0;
            double row = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                if (j == i)
                    continue;
                col += std::fabs(a(j, i));
                row += std::fabs(a(i, j));
            }
            if (col == 0.0 || row == 0.0)
                continue;
            double factor = 1.0;
            const double total = col + row;
            double target = row / radix;
            while (col < target) {
                factor *= radix;
                col *= sqrdx;
            }
            target = row * radix;
            while (col > target) {
                factor /= radix;
                col /= sqrdx;
            }
            if ((col + row) / factor < 0.95 * total) {
                done = false;
                const double inv = 1.0 / factor;
                for (std::size_t j = 0; j < n; ++j)
                    a(i, j) *= inv;
                for (std::size_t j = 0; j < n; ++j)
                    a(j, i) *= factor;
            }
        }
    }
}

void hessenberg(dense_matrix<real>& a)
{
    const std::size_t n = a.rows();
    if (n < 3)
        return;
    std::vector<double> v(n);

    for (std::size_t k = 0; k + 2 < n; ++k) {
        // Householder vector annihilating a(k+2..n-1, k).
        double scale = 0.0;
        for (std::size_t i = k + 1; i < n; ++i)
            scale += std::fabs(a(i, k));
        if (scale == 0.0)
            continue;
        double norm2 = 0.0;
        for (std::size_t i = k + 1; i < n; ++i) {
            v[i] = a(i, k) / scale;
            norm2 += v[i] * v[i];
        }
        double alpha = -sign_like(std::sqrt(norm2), v[k + 1]);
        const double vk1 = v[k + 1];
        const double beta_denom = norm2 - alpha * vk1;
        if (beta_denom == 0.0)
            continue;
        v[k + 1] = vk1 - alpha;

        // Apply P = I - v v^T / beta_denom from both sides.
        for (std::size_t j = 0; j < n; ++j) {
            double dot = 0.0;
            for (std::size_t i = k + 1; i < n; ++i)
                dot += v[i] * a(i, j);
            dot /= beta_denom;
            for (std::size_t i = k + 1; i < n; ++i)
                a(i, j) -= dot * v[i];
        }
        for (std::size_t i = 0; i < n; ++i) {
            double dot = 0.0;
            for (std::size_t j = k + 1; j < n; ++j)
                dot += a(i, j) * v[j];
            dot /= beta_denom;
            for (std::size_t j = k + 1; j < n; ++j)
                a(i, j) -= dot * v[j];
        }
        a(k + 1, k) = alpha * scale;
        for (std::size_t i = k + 2; i < n; ++i)
            a(i, k) = 0.0;
    }
}

std::vector<cplx> hessenberg_eigenvalues(dense_matrix<real>& a)
{
    const std::ptrdiff_t size = static_cast<std::ptrdiff_t>(a.rows());
    std::vector<cplx> eig;
    eig.reserve(a.rows());
    if (size == 0)
        return eig;

    constexpr double eps = std::numeric_limits<double>::epsilon();

    double anorm = 0.0;
    for (std::ptrdiff_t i = 0; i < size; ++i)
        for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(i - 1, 0); j < size; ++j)
            anorm += std::fabs(a(i, j));
    if (anorm == 0.0) {
        eig.assign(a.rows(), cplx{0.0, 0.0});
        return eig;
    }

    std::ptrdiff_t nn = size - 1;
    double shift_total = 0.0;
    int iterations = 0;

    double p = 0.0;
    double q = 0.0;
    double r = 0.0;

    while (nn >= 0) {
        std::ptrdiff_t l = 0;
        do {
            // Look for a negligible subdiagonal element to split the problem.
            for (l = nn; l >= 1; --l) {
                double s = std::fabs(a(l - 1, l - 1)) + std::fabs(a(l, l));
                if (s == 0.0)
                    s = anorm;
                if (std::fabs(a(l, l - 1)) <= eps * s) {
                    a(l, l - 1) = 0.0;
                    break;
                }
            }
            double x = a(nn, nn);
            if (l == nn) {
                // One real eigenvalue deflates.
                eig.emplace_back(x + shift_total, 0.0);
                --nn;
                iterations = 0;
            } else {
                double y = a(nn - 1, nn - 1);
                double w = a(nn, nn - 1) * a(nn - 1, nn);
                if (l == nn - 1) {
                    // A 2x2 block deflates: real pair or complex pair.
                    p = 0.5 * (y - x);
                    q = p * p + w;
                    double z = std::sqrt(std::fabs(q));
                    x += shift_total;
                    if (q >= 0.0) {
                        z = p + sign_like(z, p);
                        const double first = x + z;
                        double second = first;
                        if (z != 0.0)
                            second = x - w / z;
                        eig.emplace_back(first, 0.0);
                        eig.emplace_back(second, 0.0);
                    } else {
                        eig.emplace_back(x + p, z);
                        eig.emplace_back(x + p, -z);
                    }
                    nn -= 2;
                    iterations = 0;
                } else {
                    // No deflation: perform one implicit double-shift sweep.
                    if (iterations == 40)
                        throw numeric_error("eig: QR iteration failed to converge");
                    if (iterations == 10 || iterations == 20) {
                        // Exceptional shift to break cycling.
                        shift_total += x;
                        for (std::ptrdiff_t i = 0; i <= nn; ++i)
                            a(i, i) -= x;
                        const double s = std::fabs(a(nn, nn - 1)) + std::fabs(a(nn - 1, nn - 2));
                        y = x = 0.75 * s;
                        w = -0.4375 * s * s;
                    }
                    ++iterations;

                    std::ptrdiff_t m = 0;
                    for (m = nn - 2; m >= l; --m) {
                        const double z = a(m, m);
                        const double rr = x - z;
                        const double ss = y - z;
                        p = (rr * ss - w) / a(m + 1, m) + a(m, m + 1);
                        q = a(m + 1, m + 1) - z - rr - ss;
                        r = a(m + 2, m + 1);
                        const double scale = std::fabs(p) + std::fabs(q) + std::fabs(r);
                        p /= scale;
                        q /= scale;
                        r /= scale;
                        if (m == l)
                            break;
                        const double u = std::fabs(a(m, m - 1)) * (std::fabs(q) + std::fabs(r));
                        const double v = std::fabs(p)
                            * (std::fabs(a(m - 1, m - 1)) + std::fabs(z) + std::fabs(a(m + 1, m + 1)));
                        if (u <= eps * v)
                            break;
                    }
                    for (std::ptrdiff_t i = m + 2; i <= nn; ++i) {
                        a(i, i - 2) = 0.0;
                        if (i != m + 2)
                            a(i, i - 3) = 0.0;
                    }
                    for (std::ptrdiff_t k = m; k <= nn - 1; ++k) {
                        double col_scale = 0.0;
                        if (k != m) {
                            p = a(k, k - 1);
                            q = a(k + 1, k - 1);
                            r = 0.0;
                            if (k != nn - 1)
                                r = a(k + 2, k - 1);
                            col_scale = std::fabs(p) + std::fabs(q) + std::fabs(r);
                            if (col_scale != 0.0) {
                                p /= col_scale;
                                q /= col_scale;
                                r /= col_scale;
                            }
                        }
                        const double s = sign_like(std::sqrt(p * p + q * q + r * r), p);
                        if (s == 0.0)
                            continue;
                        if (k == m) {
                            if (l != m)
                                a(k, k - 1) = -a(k, k - 1);
                        } else {
                            a(k, k - 1) = -s * col_scale;
                        }
                        p += s;
                        const double x2 = p / s;
                        const double y2 = q / s;
                        const double z2 = r / s;
                        q /= p;
                        r /= p;
                        for (std::ptrdiff_t j = k; j <= nn; ++j) {
                            double pp = a(k, j) + q * a(k + 1, j);
                            if (k != nn - 1) {
                                pp += r * a(k + 2, j);
                                a(k + 2, j) -= pp * z2;
                            }
                            a(k + 1, j) -= pp * y2;
                            a(k, j) -= pp * x2;
                        }
                        const std::ptrdiff_t mmin = std::min(nn, k + 3);
                        for (std::ptrdiff_t i = l; i <= mmin; ++i) {
                            double pp = x2 * a(i, k) + y2 * a(i, k + 1);
                            if (k != nn - 1) {
                                pp += z2 * a(i, k + 2);
                                a(i, k + 2) -= pp * r;
                            }
                            a(i, k + 1) -= pp * q;
                            a(i, k) -= pp;
                        }
                    }
                }
            }
        } while (l < nn - 1 && nn >= 0);
    }
    return eig;
}

std::vector<cplx> eigenvalues(dense_matrix<real> a)
{
    if (a.rows() != a.cols())
        throw numeric_error("eig: matrix must be square");
    balance(a);
    hessenberg(a);
    return hessenberg_eigenvalues(a);
}

std::vector<cplx> embedded_eigenvalues(const dense_matrix<cplx>& m)
{
    const std::size_t n = m.rows();
    if (n != m.cols())
        throw numeric_error("eig: matrix must be square");
    dense_matrix<real> em(2 * n, 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            em(i, j) = m(i, j).real();
            em(i, n + j) = -m(i, j).imag();
            em(n + i, j) = m(i, j).imag();
            em(n + i, n + j) = m(i, j).real();
        }
    }
    return eigenvalues(std::move(em));
}

} // namespace acstab::numeric
