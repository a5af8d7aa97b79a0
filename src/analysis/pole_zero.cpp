#include "analysis/pole_zero.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "numeric/eig.h"
#include "numeric/lu.h"
#include "numeric/sparse_factor.h"

namespace acstab::analysis {

namespace {

    using real_pencil = engine::linearized_snapshot::real_pencil;

    /// Sparse search shape: shift density across the band and Arnoldi
    /// vectors per shift.
    constexpr real shifts_per_decade = 2.0;
    constexpr std::size_t krylov_dim = 20;
    /// A Ritz pair is converged when its residual on the shift-invert
    /// operator is below this, relative to |mu|.
    constexpr real ritz_tol = 1e-10;
    /// Largest pencil backward error a returned sparse pole may have.
    constexpr real pencil_tol = 1e-10;
    /// Two poles closer than this (relative) are one pole found twice.
    constexpr real same_pole_tol = 1e-8;
    /// An unconverged Ritz value this close (relative residual) is still
    /// a usable estimate of a target pole for inverse iteration, which
    /// then takes at most refine_rounds factorizations of refine_steps
    /// solves each.
    constexpr real visible_tol = 1e-2;
    constexpr int refine_rounds = 2;
    constexpr int refine_steps = 30;
    /// A shift showing targets for this many of its Krylov vectors is
    /// saturated: more targets nearby may never show. (Four loop cells
    /// within one decade show up to five, counting a blended Ritz value;
    /// an LC ladder's bunched modes show ten or more.)
    constexpr std::size_t crowded = krylov_dim / 2;

    /// The pencil both paths solve: the circuit linearized once at the
    /// operating point with the options' gmin/gshunt and every source
    /// zeroed.
    [[nodiscard]] engine::linearized_snapshot pencil_snapshot(spice::circuit& c,
                                                              const std::vector<real>& op,
                                                              const pole_zero_options& opt,
                                                              const std::string& what)
    {
        c.finalize();
        if (op.size() != c.unknown_count())
            throw analysis_error(what + ": operating point has wrong size");
        for (std::size_t i = 0; i < op.size(); ++i)
            if (!std::isfinite(op[i]))
                throw analysis_error(what + ": operating point is not finite at "
                                     + (i < c.node_count()
                                            ? "node '" + c.node_name(static_cast<spice::node_id>(i))
                                                + "'"
                                            : "branch unknown " + std::to_string(i)));
        engine::snapshot_options so;
        so.gmin = opt.gmin;
        so.gshunt = opt.gshunt;
        so.zero_all_sources = true;
        return engine::linearized_snapshot(c, op, so);
    }

    [[nodiscard]] pole make_pole(cplx s)
    {
        pole pl;
        pl.s = s;
        const real mag = std::abs(s);
        pl.freq_hz = mag / two_pi;
        pl.zeta = mag > 0.0 ? -s.real() / mag : 1.0;
        pl.is_complex = std::fabs(s.imag()) > 1e-9 * mag;
        return pl;
    }

    /// Finite roots of det(G + sC) = 0 by shift-invert: with
    /// M = (G + sigma C)^{-1} C, every eigenvalue mu maps to
    /// s = sigma - 1/mu; mu ~ 0 corresponds to roots at infinity.
    [[nodiscard]] std::vector<pole> pencil_roots(const numeric::dense_matrix<real>& g,
                                                 const numeric::dense_matrix<real>& cap,
                                                 real sigma, const pole_zero_options& opt)
    {
        const std::size_t n = g.rows();
        numeric::dense_matrix<real> shifted = g;
        if (sigma != 0.0)
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    shifted(i, j) += sigma * cap(i, j);
        const numeric::lu_decomposition<real> lu(shifted);
        numeric::dense_matrix<real> m = lu.solve(cap);
        const std::vector<cplx> mu = numeric::eigenvalues(std::move(m));

        real mu_max = 0.0;
        for (const cplx& v : mu)
            mu_max = std::max(mu_max, std::abs(v));
        const real floor = mu_max * opt.mu_rel_floor;

        std::vector<pole> roots;
        for (const cplx& v : mu)
            if (std::abs(v) > floor)
                roots.push_back(make_pole(sigma - 1.0 / v));
        std::sort(roots.begin(), roots.end(),
                  [](const pole& a, const pole& b) { return a.freq_hz < b.freq_hz; });
        return roots;
    }

    /// y = A x for a real sparse A and a complex x.
    void multiply(const numeric::csc_matrix<real>& a, const cplx* x, cplx* y)
    {
        std::fill(y, y + a.rows(), cplx{});
        const auto& cp = a.col_ptr();
        const auto& ri = a.row_idx();
        const auto& v = a.values();
        for (std::size_t j = 0; j < a.cols(); ++j)
            for (std::size_t k = cp[j]; k < cp[j + 1]; ++k)
                y[ri[k]] += v[k] * x[j];
    }

    [[nodiscard]] real norm2(const std::vector<cplx>& x)
    {
        real s = 0.0;
        for (const cplx& v : x)
            s += std::norm(v);
        return std::sqrt(s);
    }

    /// The sparse search's view of the pencil: G and C on one pattern plus
    /// their absolute row sums, the row scales of the backward error.
    struct pencil_scales {
        explicit pencil_scales(real_pencil pc)
            : p(std::move(pc)), g_rows(p.g.rows()), c_rows(p.g.rows())
        {
            const auto& ri = p.g.row_idx();
            for (std::size_t k = 0; k < ri.size(); ++k) {
                g_rows[ri[k]] += std::fabs(p.g.values()[k]);
                c_rows[ri[k]] += std::fabs(p.c.values()[k]);
            }
        }

        /// Backward error of s as a pole with eigenvector x: the residual
        /// (G + sC) x row by row, relative to that row's pencil scale
        /// sum_j (|G_ij| + |s| |C_ij|) times ||x||_inf. Row scaling keeps
        /// the test fair across the decades MNA rows span (gigaohm nodes
        /// next to unit voltage-source rows).
        [[nodiscard]] real backward_error(cplx s, const std::vector<cplx>& x,
                                          std::vector<cplx>& r) const
        {
            std::fill(r.begin(), r.end(), cplx{});
            const auto& cp = p.g.col_ptr();
            const auto& ri = p.g.row_idx();
            const auto& gv = p.g.values();
            const auto& cv = p.c.values();
            real xmax = 0.0;
            for (std::size_t j = 0; j < x.size(); ++j) {
                xmax = std::max(xmax, std::abs(x[j]));
                for (std::size_t k = cp[j]; k < cp[j + 1]; ++k)
                    r[ri[k]] += (gv[k] + s * cv[k]) * x[j];
            }
            if (!(xmax > 0.0))
                return std::numeric_limits<real>::infinity();
            real eta = 0.0;
            for (std::size_t i = 0; i < r.size(); ++i) {
                const real scale = (g_rows[i] + std::abs(s) * c_rows[i]) * xmax;
                if (scale > 0.0)
                    eta = std::max(eta, std::abs(r[i]) / scale);
            }
            return eta;
        }

        real_pencil p;
        std::vector<real> g_rows;
        std::vector<real> c_rows;
    };

    /// Unit eigenvector of a small complex matrix for an eigenvalue
    /// estimate theta: two steps of inverse iteration, shifted a hair off
    /// theta so an exact eigenvalue (a one-vector basis) leaves the solve
    /// regular.
    [[nodiscard]] std::optional<std::vector<cplx>>
    ritz_vector(const numeric::dense_matrix<cplx>& h, cplx theta, real hnorm)
    {
        numeric::dense_matrix<cplx> a = h;
        for (std::size_t i = 0; i < a.rows(); ++i)
            a(i, i) -= theta + 1e-14 * hnorm;
        try {
            const numeric::lu_decomposition<cplx> lu(std::move(a));
            std::vector<cplx> y(h.rows(), cplx{1.0, 0.0});
            for (int it = 0; it < 2; ++it) {
                y = lu.solve(y);
                const real ny = norm2(y);
                if (!(ny > 0.0) || !std::isfinite(ny))
                    return std::nullopt;
                for (cplx& v : y)
                    v /= ny;
            }
            return y;
        } catch (const numeric_error&) {
            return std::nullopt;
        }
    }

    /// The sparse search over one band: shift-invert Arnoldi at shifts
    /// j w_k, then inverse iteration on the pencil for the target poles
    /// whose Ritz values showed but did not converge.
    class pole_search {
    public:
        pole_search(const engine::linearized_snapshot& snap, const pole_zero_options& opt)
            : pencil_(snap.pencil()), n_(snap.size()), w_lo_(to_omega(opt.fmin_hz)),
              w_hi_(to_omega(opt.fmax_hz)),
              // Every factorization refactors on the symbolic analysis
              // seeded at the band's middle.
              shared_(snap.shared_symbolic(std::sqrt(w_lo_ * w_hi_))),
              work_(snap.make_workspace()), start_(n_),
              basis_(std::min(krylov_dim, n_) + 1, std::vector<cplx>(n_)), x_(n_), y_(n_), r_(n_)
        {
            shared_.set_supernodal(true);
            // Fixed-seed LCG start vector: the search is deterministic.
            std::uint64_t state = 0x853c49e6748fea9bULL;
            const auto uniform = [&state] {
                state = state * 6364136223846793005ULL + 1442695040888963407ULL;
                return static_cast<real>(state >> 11) * 0x1.0p-52 - 1.0;
            };
            for (cplx& z : start_) {
                const real re = uniform();
                z = cplx{re, uniform()};
            }
        }

        [[nodiscard]] pole_search_result run()
        {
            pole_search_result out;
            out.sparse = true;
            const real decades = std::log10(w_hi_ / w_lo_);
            const std::size_t shifts
                = 1 + static_cast<std::size_t>(std::ceil(decades * shifts_per_decade));
            std::vector<real> grid(shifts);
            for (std::size_t k = 0; k < shifts; ++k) {
                const real t = shifts == 1 ? 0.0
                                           : static_cast<real>(k) / static_cast<real>(shifts - 1);
                grid[k] = w_lo_ * std::pow(w_hi_ / w_lo_, t);
            }
            for (std::size_t k = 0; k < shifts; ++k) {
                const real lo = k == 0 ? 0.0 : grid[k - 1];
                const real hi
                    = k + 1 == shifts ? std::numeric_limits<real>::infinity() : grid[k + 1];
                if (search_shift(grid[k], lo, hi) >= crowded)
                    ++out.crowded_shifts;
            }
            // Refine each unconverged target once, best estimate first.
            std::stable_sort(pending_.begin(), pending_.end(),
                             [](const estimate& a, const estimate& b) {
                                 return a.radius / std::abs(a.s) < b.radius / std::abs(b.s);
                             });
            const auto known = [this](const estimate& e) {
                const real tol = std::max(10.0 * e.radius, same_pole_tol * std::abs(e.s));
                return std::any_of(found_.begin(), found_.end(), [&](const found_pole& f) {
                    return std::abs(f.s - e.s) <= tol || std::abs(std::conj(f.s) - e.s) <= tol;
                });
            };
            for (const estimate& e : pending_)
                if (!known(e) && !refine(e.s))
                    ++out.unconfirmed;
            out.poles = distinct_poles();
            return out;
        }

    private:
        struct found_pole {
            cplx s;
            real eta; ///< pencil backward error
        };
        /// A target pole's unconverged Ritz estimate and its uncertainty.
        struct estimate {
            cplx s;
            real radius;
        };

        /// Factors of G + sC, refactored under the held pivot order
        /// through numeric_lu::factor, which re-pivots at s (and keeps
        /// that order for later shifts) when the order has gone stale.
        numeric::numeric_lu<cplx>& factor_at(cplx s)
        {
            std::vector<cplx>& v = work_.values_mut();
            for (std::size_t k = 0; k < v.size(); ++k)
                v[k] = pencil_.p.g.values()[k] + s * pencil_.p.c.values()[k];
            shared_.factor(work_);
            return shared_;
        }

        /// y = (G + sC)^{-1} C x with `lu` holding the factors at s.
        void apply(numeric::numeric_lu<cplx>& lu, const std::vector<cplx>& x,
                   std::vector<cplx>& y) const
        {
            multiply(pencil_.p.c, x.data(), y.data());
            lu.solve_in_place(y.data());
        }

        /// Keep s (eigenvector x) when it passes the pencil check. A real
        /// pole found from a complex shift carries rounding in its
        /// imaginary part: drop that when the real value passes too.
        void accept(cplx s, const std::vector<cplx>& x)
        {
            const real eta = pencil_.backward_error(s, x, r_);
            if (!(eta <= pencil_tol))
                return;
            if (std::fabs(s.imag()) <= 1e-6 * std::abs(s)
                && pencil_.backward_error(cplx{s.real(), 0.0}, x, r_) <= pencil_tol)
                s = cplx{s.real(), 0.0};
            found_.push_back({s, eta});
        }

        /// Whether an estimate may be a pole the contract promises: in the
        /// band with zeta <= 0.5, or in the right half-plane (with slack
        /// for the estimate's own error).
        [[nodiscard]] bool near_target(cplx s) const
        {
            const real w = std::abs(s);
            return w >= 0.99 * w_lo_ && w <= 1.01 * w_hi_
                && (s.real() > 0.0 || -s.real() <= 0.6 * w);
        }

        /// One shift of the search: Arnoldi on (G + j w C)^{-1} C. Returns
        /// how many target poles its basis showed with imaginary part
        /// between the neighbouring shifts lo and hi.
        std::size_t search_shift(real w, real lo, real hi)
        {
            std::size_t targets = 0;
            numeric::numeric_lu<cplx>* factors = nullptr;
            try {
                factors = &factor_at(cplx{0.0, w});
            } catch (const numeric_error&) {
                // Singular under every pivot order: jw itself is a pole.
                found_.push_back({cplx{0.0, w}, 0.0});
                return targets;
            }
            numeric::numeric_lu<cplx>& lu = *factors;
            std::vector<std::vector<cplx>>& v = basis_;
            const std::size_t m_max = v.size() - 1;

            // v0 = A start: one application purges the start vector's
            // part along the poles at infinity (C's null space).
            apply(lu, start_, v[0]);
            const real b0 = norm2(v[0]);
            if (!(b0 > 0.0) || !std::isfinite(b0))
                return targets;
            for (cplx& z : v[0])
                z /= b0;

            numeric::dense_matrix<cplx> h(m_max + 1, m_max);
            std::size_t m = 0;
            for (std::size_t j = 0; j < m_max; ++j) {
                std::vector<cplx>& wv = v[j + 1];
                apply(lu, v[j], wv);
                const real w0 = norm2(wv);
                // Modified Gram-Schmidt, twice: one pass loses
                // orthogonality once the basis has converged onto a few
                // dominant directions.
                for (int pass = 0; pass < 2; ++pass)
                    for (std::size_t i = 0; i <= j; ++i) {
                        const cplx d = projection(v[i], wv);
                        h(i, j) += d;
                        subtract_projection(d, v[i], wv);
                    }
                const real beta = norm2(wv);
                m = j + 1;
                if (!(beta > 1e-12 * w0)) {
                    // Breakdown: the basis spans an invariant subspace,
                    // so its Ritz values are exact eigenvalues.
                    break;
                }
                h(j + 1, j) = beta;
                for (cplx& z : wv)
                    z /= beta;
            }

            numeric::dense_matrix<cplx> hm(m, m);
            real hnorm = 0.0;
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < m; ++j) {
                    hm(i, j) = h(i, j);
                    hnorm = std::max(hnorm, std::abs(h(i, j)));
                }
            const real h_next = std::abs(h(m, m - 1));

            for (const cplx theta : numeric::embedded_eigenvalues(hm)) {
                const real amu = std::abs(theta);
                if (!(amu > 0.0) || !std::isfinite(amu))
                    continue;
                const std::optional<std::vector<cplx>> y = ritz_vector(hm, theta, hnorm);
                if (!y)
                    continue;
                // Relative residual of the Ritz pair on the operator: the
                // small eigenproblem's own residual (large for the
                // embedding's mirror values) and the Arnoldi remainder
                // h_{m+1,m} y_m.
                real res2 = std::norm(h_next * (*y)[m - 1]);
                for (std::size_t i = 0; i < m; ++i) {
                    cplx acc = -theta * (*y)[i];
                    for (std::size_t j = 0; j < m; ++j)
                        acc += hm(i, j) * (*y)[j];
                    res2 += std::norm(acc);
                }
                const real res = std::sqrt(res2) / amu;
                const cplx s = cplx{0.0, w} - 1.0 / theta;
                const bool target = res <= visible_tol && near_target(s);
                if (target && s.imag() > lo && s.imag() < hi)
                    ++targets;
                if (!(res <= ritz_tol)) {
                    // Not converged yet (a right-half-plane pole amid a
                    // dense stable spectrum converges slowly): a visible
                    // target goes to inverse iteration. |dp| ~ res |s - jw|.
                    if (target)
                        pending_.push_back({s, res * std::abs(s - cplx{0.0, w})});
                    continue;
                }
                std::fill(x_.begin(), x_.end(), cplx{});
                for (std::size_t j = 0; j < m; ++j)
                    for (std::size_t k = 0; k < n_; ++k)
                        x_[k] += v[j][k] * (*y)[j];
                accept(s, x_);
            }
            return targets;
        }

        /// Inverse iteration on the pencil at the fixed shift s0 next to
        /// a pole: each step multiplies the pole's part of the iterate by
        /// |p2 - s0| / |p - s0|, p2 the next-nearest pole. An estimate
        /// blending two nearby poles sits about as far from both and
        /// stalls; the Rayleigh quotient still moves well ahead of the
        /// iterate, so one more round refactors there. Returns whether it
        /// confirmed a pole.
        bool refine(cplx s0)
        {
            x_ = start_;
            for (int round = 0; round < refine_rounds; ++round) {
                numeric::numeric_lu<cplx>* lu = nullptr;
                try {
                    lu = &factor_at(s0);
                } catch (const numeric_error&) {
                    // Singular under every pivot order: s0 itself is a pole.
                    found_.push_back({s0, 0.0});
                    return true;
                }
                cplx s = s0;
                for (int it = 0; it < refine_steps; ++it) {
                    apply(*lu, x_, y_);
                    cplx num{};
                    real den = 0.0;
                    for (std::size_t k = 0; k < n_; ++k) {
                        num += std::conj(x_[k]) * y_[k];
                        den += std::norm(x_[k]);
                    }
                    const real ny = norm2(y_);
                    if (!(ny > 0.0) || !std::isfinite(ny) || num == cplx{})
                        return false;
                    for (std::size_t k = 0; k < n_; ++k)
                        x_[k] = y_[k] / ny;
                    s = s0 - den / num; // mu = num / den
                    if (pencil_.backward_error(s, x_, r_) <= pencil_tol) {
                        accept(s, x_);
                        return true;
                    }
                }
                s0 = s;
            }
            return false;
        }

        /// One entry per pole, best-converged copy first; conjugates added;
        /// sorted by natural frequency.
        [[nodiscard]] std::vector<pole> distinct_poles()
        {
            std::stable_sort(
                found_.begin(), found_.end(),
                [](const found_pole& a, const found_pole& b) { return a.eta < b.eta; });
            std::vector<cplx> kept;
            const auto keep = [&kept](cplx s) {
                for (const cplx& q : kept)
                    if (std::abs(q - s) <= same_pole_tol * std::abs(s))
                        return;
                kept.push_back(s);
            };
            for (const found_pole& f : found_) {
                keep(f.s);
                if (make_pole(f.s).is_complex)
                    keep(std::conj(f.s));
            }
            std::vector<pole> poles;
            poles.reserve(kept.size());
            for (const cplx& s : kept)
                poles.push_back(make_pole(s));
            std::sort(poles.begin(), poles.end(), [](const pole& a, const pole& b) {
                if (a.freq_hz != b.freq_hz)
                    return a.freq_hz < b.freq_hz;
                return a.s.imag() < b.s.imag();
            });
            return poles;
        }

        const pencil_scales pencil_;
        const std::size_t n_;
        const real w_lo_;
        const real w_hi_;
        numeric::numeric_lu<cplx> shared_;
        numeric::csc_matrix<cplx> work_;
        std::vector<cplx> start_;
        std::vector<std::vector<cplx>> basis_;
        std::vector<cplx> x_, y_, r_;
        std::vector<found_pole> found_;
        std::vector<estimate> pending_;
    };

    [[nodiscard]] pole_search_result sparse_pencil_poles(const engine::linearized_snapshot& snap,
                                                         const pole_zero_options& opt)
    {
        if (!(opt.fmin_hz > 0.0) || !(opt.fmax_hz >= opt.fmin_hz) || !std::isfinite(opt.fmax_hz))
            throw analysis_error("pole analysis: the band needs 0 < fmin_hz <= fmax_hz");
        if (snap.size() == 0) {
            pole_search_result none;
            none.sparse = true;
            return none;
        }
        return pole_search(snap, opt).run();
    }

} // namespace

pole_search_result search_circuit_poles(spice::circuit& c, const std::vector<real>& op,
                                        const pole_zero_options& opt)
{
    c.finalize();
    if (c.unknown_count() >= sparse_pole_min_unknowns)
        return sparse_circuit_poles(c, op, opt);
    pole_search_result all;
    all.poles = dense_circuit_poles(c, op, opt);
    return all;
}

std::vector<pole> circuit_poles(spice::circuit& c, const std::vector<real>& op,
                                const pole_zero_options& opt)
{
    return search_circuit_poles(c, op, opt).poles;
}

std::vector<pole> dense_circuit_poles(spice::circuit& c, const std::vector<real>& op,
                                      const pole_zero_options& opt)
{
    const real_pencil pc = pencil_snapshot(c, op, opt, "pole analysis").pencil();
    return pencil_roots(pc.g.to_dense(), pc.c.to_dense(), 0.0, opt);
}

pole_search_result sparse_circuit_poles(spice::circuit& c, const std::vector<real>& op,
                                        const pole_zero_options& opt)
{
    return sparse_pencil_poles(pencil_snapshot(c, op, opt, "pole analysis"), opt);
}

std::vector<pole> impedance_zeros_at_node(spice::circuit& c, const std::vector<real>& op,
                                          const std::string& node,
                                          const pole_zero_options& opt)
{
    const real_pencil pc = pencil_snapshot(c, op, opt, "zero analysis").pencil();
    const auto id = c.find_node(node);
    if (!id || *id < 0)
        throw analysis_error("zero analysis: bad node '" + node + "'");
    const numeric::dense_matrix<real> g = pc.g.to_dense();
    const numeric::dense_matrix<real> cap = pc.c.to_dense();

    // Shorting the node to ground deletes its row and column from the
    // pencil; the reduced pencil's roots are Z_nn's zeros.
    const std::size_t n = g.rows();
    const std::size_t skip = static_cast<std::size_t>(*id);
    numeric::dense_matrix<real> gr(n - 1, n - 1);
    numeric::dense_matrix<real> cr(n - 1, n - 1);
    for (std::size_t i = 0, ir = 0; i < n; ++i) {
        if (i == skip)
            continue;
        for (std::size_t j = 0, jr = 0; j < n; ++j) {
            if (j == skip)
                continue;
            gr(ir, jr) = g(i, j);
            cr(ir, jr) = cap(i, j);
            ++jr;
        }
        ++ir;
    }
    // A nonzero shift keeps the solve regular when a zero sits at s = 0
    // (e.g. a series capacitor path).
    return pencil_roots(gr, cr, 1.0, opt);
}

cplx projection(const std::vector<cplx>& v, const std::vector<cplx>& w) noexcept
{
    real re = 0.0;
    real im = 0.0;
    for (std::size_t k = 0; k < v.size(); ++k) {
        const real ar = v[k].real();
        const real ai = v[k].imag();
        const real br = w[k].real();
        const real bi = w[k].imag();
        re += ar * br + ai * bi;
        im += ar * bi - ai * br;
    }
    return {re, im};
}

void subtract_projection(cplx d, const std::vector<cplx>& v, std::vector<cplx>& w) noexcept
{
    const real dr = d.real();
    const real di = d.imag();
    for (std::size_t k = 0; k < v.size(); ++k) {
        const real ar = v[k].real();
        const real ai = v[k].imag();
        w[k] = {w[k].real() - (dr * ar - di * ai), w[k].imag() - (dr * ai + di * ar)};
    }
}

bool is_right_half_plane(const pole& p) noexcept
{
    return p.s.real() > 1e-6 * std::abs(p.s);
}

bool dominant_complex_pole(const std::vector<pole>& poles, pole& out)
{
    bool found = false;
    for (const pole& p : poles) {
        if (!p.is_complex || p.s.imag() <= 0.0)
            continue;
        if (!found || p.zeta < out.zeta) {
            out = p;
            found = true;
        }
    }
    return found;
}

std::vector<pole> complex_pairs(const std::vector<pole>& poles)
{
    std::vector<pole> pairs;
    for (const pole& p : poles)
        if (p.is_complex && p.s.imag() > 0.0)
            pairs.push_back(p);
    return pairs;
}

} // namespace acstab::analysis
