#include "numeric/aaa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "numeric/dense_matrix.h"
#include "numeric/eig.h"
#include "numeric/lu.h"

namespace acstab::numeric {

namespace {

    /// Smallest-eigenpair right vector of the Hermitian positive
    /// semi-definite normal matrix M = A^H A by shifted inverse iteration.
    /// M is tiny (support_count squared), so a dense LU per call is cheap;
    /// the ridge keeps the factorization well posed when the smallest
    /// eigenvalue is (numerically) zero — which is exactly the interesting
    /// case, where any vector of the near-null space is a valid weight
    /// vector.
    std::vector<cplx> smallest_eigenvector(const dense_matrix<cplx>& m)
    {
        const std::size_t n = m.rows();
        real trace = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            trace += m(i, i).real();
        const real ridge0 = std::max(trace / static_cast<real>(n), real{1.0})
            * std::numeric_limits<real>::epsilon();

        for (real ridge = ridge0; ridge <= 1e33; ridge *= 1e3) {
            dense_matrix<cplx> shifted = m;
            for (std::size_t i = 0; i < n; ++i)
                shifted(i, i) += cplx{ridge, 0.0};
            std::vector<cplx> v(n, cplx{1.0, 0.0});
            bool ok = true;
            try {
                const lu_decomposition<cplx> lu(std::move(shifted));
                for (int it = 0; it < 24 && ok; ++it) {
                    v = lu.solve(v);
                    real norm = 0.0;
                    for (const cplx& e : v)
                        norm += std::norm(e);
                    norm = std::sqrt(norm);
                    // Overflow/underflow mid-iteration means the shift is
                    // too light for this conditioning, not that the
                    // current (garbage) iterate is an answer.
                    ok = norm > 0.0 && std::isfinite(norm);
                    if (ok)
                        for (cplx& e : v)
                            e /= norm;
                }
            } catch (const numeric_error&) {
                ok = false;
            }
            if (ok)
                return v;
            // Retry with a heavier ridge; M is PSD so this terminates.
        }
        throw numeric_error("aaa: weight eigen-solve failed to converge");
    }

} // namespace

cplx aaa_model::eval(std::size_t c, real x) const
{
    return eval_with(coeffs_at(x), c);
}

cplx aaa_model::eval_with(const barycentric_coeffs& bc, std::size_t c) const
{
    if (c >= support_f_.size())
        throw numeric_error("aaa: component index out of range");
    if (bc.exact_hit)
        return support_f_[c][bc.hit];
    cplx acc{};
    for (std::size_t j = 0; j < bc.coeff.size(); ++j)
        acc += bc.coeff[j] * support_f_[c][j];
    return acc;
}

barycentric_coeffs aaa_model::coeffs_at(real x) const
{
    if (support_x_.empty())
        throw numeric_error("aaa: empty model");
    barycentric_coeffs bc;
    // An evaluation point indistinguishable from a support point makes the
    // naive form 0/0; return the interpolated (stored) value instead.
    for (std::size_t j = 0; j < support_x_.size(); ++j) {
        if (x == support_x_[j]
            || std::fabs(x - support_x_[j]) < 1e-14 * std::fabs(support_x_[j])) {
            bc.exact_hit = true;
            bc.hit = j;
            return bc;
        }
    }
    bc.coeff.resize(support_x_.size());
    cplx den{};
    real den_mass = 0.0;
    for (std::size_t j = 0; j < support_x_.size(); ++j) {
        const cplx term = weights_[j] / cplx{x - support_x_[j], 0.0};
        bc.coeff[j] = term;
        den += term;
        den_mass += std::abs(term);
    }
    if (den == cplx{})
        throw numeric_error("aaa: degenerate barycentric denominator");
    bc.denom_health = den_mass > 0.0 ? std::abs(den) / den_mass : 1.0;
    for (cplx& e : bc.coeff)
        e /= den;
    return bc;
}

aaa_model aaa_fit(std::span<const real> x, const std::vector<std::vector<cplx>>& f,
                  const aaa_options& opt)
{
    const std::size_t n = x.size();
    if (n < 3)
        throw numeric_error("aaa: need at least 3 samples");
    if (f.empty())
        throw numeric_error("aaa: need at least one component");
    for (const std::vector<cplx>& fc : f)
        if (fc.size() != n)
            throw numeric_error("aaa: component/abscissa length mismatch");
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            if (x[i] == x[j])
                throw numeric_error("aaa: abscissae must be distinct");

    const std::size_t nc = f.size();
    // Pointwise-relative error weights: downstream consumers differentiate
    // ln|f|, so the fit must be accurate relative to each SAMPLE's own
    // magnitude, not the channel's peak (a response spanning decades would
    // otherwise be fitted sloppily at its small end, exactly where the
    // log-curvature is just as sensitive). The floor keeps near-zero
    // samples from demanding noise-level accuracy.
    std::vector<std::vector<real>> wgt(nc, std::vector<real>(n));
    for (std::size_t c = 0; c < nc; ++c) {
        real s = 0.0;
        for (const cplx& v : f[c])
            s = std::max(s, std::abs(v));
        const real floor = std::max(s * 1e-9, std::numeric_limits<real>::min());
        for (std::size_t i = 0; i < n; ++i)
            wgt[c][i] = 1.0 / std::max(std::abs(f[c][i]), floor);
    }

    // Running approximation at every sample; seeded with the per-component
    // mean so the first support point is the sample farthest from it.
    std::vector<std::vector<cplx>> r(nc, std::vector<cplx>(n));
    for (std::size_t c = 0; c < nc; ++c) {
        cplx mean{};
        for (const cplx& v : f[c])
            mean += v;
        mean /= static_cast<real>(n);
        std::fill(r[c].begin(), r[c].end(), mean);
    }

    aaa_model model;
    std::vector<bool> is_support(n, false);
    const std::size_t max_support = std::min(opt.max_support, n - 1);
    real err = std::numeric_limits<real>::infinity();

    // Warm-start seeds: sanitized (in range, unique, within budget) and
    // promoted before any greedy step, with the weight solve deferred to
    // the last seed — see aaa_options::seed_support.
    std::vector<std::size_t> seeds;
    seeds.reserve(opt.seed_support.size());
    for (const std::size_t s : opt.seed_support) {
        if (s >= n || seeds.size() >= max_support)
            continue;
        bool dup = false;
        for (const std::size_t prev : seeds)
            dup = dup || prev == s;
        if (!dup)
            seeds.push_back(s);
    }
    std::size_t seed_pos = 0;

    // The Loewner matrix A — one row per (sample, component), one column
    // per support point, support rows zeroed — is kept explicitly so the
    // normal matrix M = A^H A can be updated INCREMENTALLY per greedy
    // step (subtract the promoted sample's row contributions, append the
    // new column's inner products) instead of being rebuilt from scratch:
    // O(n nc m) per step rather than O(n nc m^2).
    std::vector<std::vector<cplx>> acols;
    dense_matrix<cplx> gram(max_support, max_support);

    while (model.support_x_.size() < max_support) {
        std::size_t worst = n;
        if (seed_pos < seeds.size()) {
            // Adopt the next warm-start seed instead of searching.
            worst = seeds[seed_pos++];
        } else {
            // Greedy step: promote the worst non-support sample.
            real worst_err = -1.0;
            for (std::size_t i = 0; i < n; ++i) {
                if (is_support[i])
                    continue;
                real e = 0.0;
                for (std::size_t c = 0; c < nc; ++c)
                    e = std::max(e, std::abs(f[c][i] - r[c][i]) * wgt[c][i]);
                if (e > worst_err) {
                    worst_err = e;
                    worst = i;
                }
            }
        }
        if (worst == n)
            break;
        is_support[worst] = true;
        model.support_x_.push_back(x[worst]);
        model.support_idx_.push_back(worst);

        const std::size_t m = model.support_x_.size();

        // Weights: least-squares null vector of the Loewner matrix with one
        // row per (non-support sample, component), each row scaled by that
        // sample's relative-error weight:
        //   A[(i,c)][j] = wgt_c(i) * (f_c(x_i) - f_c(x_j)) / (x_i - x_j).
        // m is small, so the normal matrix M = A^H A plus inverse iteration
        // is cheaper and simpler than a rectangular SVD; the squared
        // conditioning costs a few digits we can spare at the fit
        // tolerances the adaptive sweep uses.
        //
        // Promoting sample `worst` removes its rows from every existing
        // inner product...
        for (std::size_t a = 0; a + 1 < m; ++a)
            for (std::size_t b = 0; b + 1 < m; ++b)
                for (std::size_t c = 0; c < nc; ++c)
                    gram(a, b) -= std::conj(acols[a][worst * nc + c])
                        * acols[b][worst * nc + c];
        for (std::vector<cplx>& col : acols)
            for (std::size_t c = 0; c < nc; ++c)
                col[worst * nc + c] = cplx{};
        // ...and contributes a fresh column of difference quotients.
        std::vector<cplx> newcol(n * nc, cplx{});
        for (std::size_t i = 0; i < n; ++i) {
            if (is_support[i])
                continue;
            for (std::size_t c = 0; c < nc; ++c)
                newcol[i * nc + c] = (f[c][i] - f[c][worst]) * wgt[c][i]
                    / cplx{x[i] - x[worst], 0.0};
        }
        for (std::size_t j = 0; j + 1 < m; ++j) {
            cplx dot{};
            for (std::size_t k = 0; k < n * nc; ++k)
                dot += std::conj(acols[j][k]) * newcol[k];
            gram(j, m - 1) = dot;
            gram(m - 1, j) = std::conj(dot);
        }
        real nn = 0.0;
        for (const cplx& v : newcol)
            nn += std::norm(v);
        gram(m - 1, m - 1) = cplx{nn, 0.0};
        acols.push_back(std::move(newcol));

        // While seeds remain, the weight solve is deferred: the next
        // iteration promotes another seed anyway, so intermediate weights
        // would be discarded unread. One eigen-solve covers the batch.
        if (seed_pos < seeds.size())
            continue;

        if (m == 1) {
            model.weights_ = {cplx{1.0, 0.0}};
        } else {
            dense_matrix<cplx> normal(m, m);
            for (std::size_t a = 0; a < m; ++a)
                for (std::size_t b = 0; b < m; ++b)
                    normal(a, b) = gram(a, b);
            // Jacobi equilibration before the eigen solve: support points
            // spread over decades give Loewner columns of wildly different
            // scale, and the normal matrix squares that spread — without
            // rescaling the null vector drowns in rounding noise. Scaling
            // column j by 1/sqrt(M_jj) (and back-scaling the result)
            // preserves the exact null space while taming the conditioning.
            std::vector<real> colscale(m, 1.0);
            for (std::size_t j = 0; j < m; ++j)
                if (normal(j, j).real() > 0.0)
                    colscale[j] = 1.0 / std::sqrt(normal(j, j).real());
            for (std::size_t a = 0; a < m; ++a)
                for (std::size_t b = 0; b < m; ++b)
                    normal(a, b) *= colscale[a] * colscale[b];
            model.weights_ = smallest_eigenvector(normal);
            real wnorm = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                model.weights_[j] *= colscale[j];
                wnorm += std::norm(model.weights_[j]);
            }
            wnorm = std::sqrt(wnorm);
            if (wnorm > 0.0)
                for (cplx& w : model.weights_)
                    w /= wnorm;
        }

        // Update the running approximation and measure the fit.
        err = 0.0;
        std::vector<cplx> terms(m);
        for (std::size_t i = 0; i < n; ++i) {
            if (is_support[i])
                continue;
            cplx den{};
            for (std::size_t j = 0; j < m; ++j) {
                terms[j] = model.weights_[j] / cplx{x[i] - model.support_x_[j], 0.0};
                den += terms[j];
            }
            for (std::size_t c = 0; c < nc; ++c) {
                cplx num{};
                for (std::size_t j = 0; j < m; ++j)
                    num += terms[j] * f[c][model.support_idx_[j]];
                r[c][i] = den == cplx{} ? f[c][i] : num / den;
                err = std::max(err, std::abs(f[c][i] - r[c][i]) * wgt[c][i]);
            }
        }
        if (err <= opt.rel_tol)
            break;
    }

    model.support_f_.resize(nc);
    for (std::size_t c = 0; c < nc; ++c) {
        model.support_f_[c].resize(model.support_idx_.size());
        for (std::size_t j = 0; j < model.support_idx_.size(); ++j)
            model.support_f_[c][j] = f[c][model.support_idx_[j]];
    }
    model.fit_error_ = err;
    return model;
}

namespace {

    /// N(x) = S + sum_j v[j]/(x - z[j]) together with a cancellation-aware
    /// relative residual (|N| over the sum of term magnitudes): a true
    /// root shows near-total cancellation, the real-embedding's conjugate
    /// mirror of a root does not.
    struct nodal_eval {
        cplx value{};
        cplx derivative{};
        real rel_residual = 0.0;
    };

    [[nodiscard]] nodal_eval eval_nodal(cplx s_const, std::span<const real> z,
                                        std::span<const cplx> v, cplx x)
    {
        nodal_eval e;
        e.value = s_const;
        real scale = std::abs(s_const);
        for (std::size_t j = 0; j < z.size(); ++j) {
            const cplx d = x - z[j];
            if (d == cplx{}) {
                e.rel_residual = 1.0;
                return e; // exactly on a node: a pole of N, never a root
            }
            const cplx term = v[j] / d;
            e.value += term;
            e.derivative -= term / d;
            scale += std::abs(term);
        }
        e.rel_residual = scale > 0.0 ? std::abs(e.value) / scale : 1.0;
        return e;
    }

} // namespace

std::vector<cplx> barycentric_nodal_roots(std::span<const real> nodes,
                                          std::span<const cplx> values)
{
    if (nodes.size() != values.size())
        throw numeric_error("nodal roots: nodes/values size mismatch");

    // Deflate: multiplying N by (x - z_r) folds node r away and leaves
    // the secular form S + sum u_j/(x - z_j) with the same roots
    // (constant S = sum v_j). A vanishing S means the degree dropped —
    // one root moved to infinity — so deflate again.
    std::vector<real> z(nodes.begin(), nodes.end());
    std::vector<cplx> v(values.begin(), values.end());
    cplx s_const{};
    while (true) {
        if (z.size() < 2)
            return {};
        real vmax = 0.0;
        for (const cplx& vj : v)
            vmax = std::max(vmax, std::abs(vj));
        if (vmax == 0.0)
            return {};
        const cplx s = std::accumulate(v.begin(), v.end(), cplx{});
        const real zr = z.back();
        z.pop_back();
        v.pop_back();
        for (std::size_t j = 0; j < z.size(); ++j)
            v[j] *= cplx{z[j] - zr, 0.0};
        if (std::abs(s) > 1e-13 * vmax) {
            s_const = s;
            break;
        }
        // s ~ 0: the product is (numerically) homogeneous again with the
        // scaled values; loop and fold away another node.
    }

    // Secular roots = eigenvalues of C = diag(z) - (1/S) u 1^T; the
    // Newton polish below drops the conjugate mirror the real embedding
    // adds.
    const std::size_t m = z.size();
    dense_matrix<cplx> cm(m, m);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
            cm(i, j) = (i == j ? cplx{z[i], 0.0} : cplx{}) - v[i] / s_const;
    const std::vector<cplx> candidates = embedded_eigenvalues(cm);

    // Newton-polish every candidate on N itself, then keep converged
    // roots with a genuinely cancelling residual, deduplicated.
    real span = 0.0;
    for (const real zj : z)
        for (const real zk : z)
            span = std::max(span, std::fabs(zj - zk));
    if (span == 0.0)
        span = std::fabs(z.front()) + 1.0;

    std::vector<cplx> roots;
    for (cplx x : candidates) {
        bool converged = false;
        for (int it = 0; it < 24; ++it) {
            const nodal_eval e = eval_nodal(s_const, z, v, x);
            if (e.rel_residual < 1e-9) {
                converged = true;
                break;
            }
            if (e.derivative == cplx{})
                break;
            const cplx step = e.value / e.derivative;
            if (!(std::isfinite(step.real()) && std::isfinite(step.imag())))
                break;
            x -= step;
            if (std::abs(step) <= 1e-14 * (std::abs(x) + span)) {
                converged = eval_nodal(s_const, z, v, x).rel_residual < 1e-7;
                break;
            }
        }
        if (!converged)
            continue;
        bool duplicate = false;
        for (const cplx& r : roots)
            duplicate = duplicate || std::abs(r - x) <= 1e-8 * (std::abs(x) + 1e-3 * span);
        if (!duplicate)
            roots.push_back(x);
    }
    std::sort(roots.begin(), roots.end(), [](const cplx& a, const cplx& b) {
        if (a.real() != b.real())
            return a.real() < b.real();
        return a.imag() < b.imag();
    });
    return roots;
}

std::vector<cplx> aaa_model::poles() const
{
    return barycentric_nodal_roots(support_x_, weights_);
}

std::vector<cplx> aaa_model::level_crossings(std::size_t c, cplx level) const
{
    if (c >= support_f_.size())
        throw numeric_error("level_crossings: component out of range");
    std::vector<cplx> v(weights_.size());
    for (std::size_t j = 0; j < v.size(); ++j)
        v[j] = weights_[j] * (support_f_[c][j] - level);
    return barycentric_nodal_roots(support_x_, v);
}

} // namespace acstab::numeric
