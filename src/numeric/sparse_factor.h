// The symbolic / numeric split of the left-looking sparse LU
// (Gilbert–Peierls with threshold partial pivoting).
//
//   * symbolic_lu — the immutable, shareable half: pivot order, column
//     preordering and the full symbolic L/U reach patterns, computed once
//     per matrix structure. Safe to share (read-only) across any number
//     of workers via shared_ptr; the sweep engine computes it once per
//     linearized snapshot instead of once per worker chunk.
//   * numeric_lu — the lightweight per-worker half: just the L/U values
//     plus O(n) scratch, refactored in place against the shared symbolic
//     object frequency to frequency. Its solve_in_place / solve_batch
//     back-solve whole RHS batches in one L and one U traversal without
//     a single heap allocation, which is what makes the sweep hot loop
//     allocation-free. Its factor() is the one guarded refactorization:
//     the sweep engine, the Newton solver and the pole search reuse a
//     pivot order only through it, and it re-pivots when the order has
//     gone stale.
//
// sparse_lu.h keeps the original one-object facade on top of this pair
// for one-shot factor-and-solve call sites.
#ifndef ACSTAB_NUMERIC_SPARSE_FACTOR_H
#define ACSTAB_NUMERIC_SPARSE_FACTOR_H

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "numeric/amd_order.h"
#include "numeric/sn_kernels.h"
#include "numeric/sparse_matrix.h"
#include "numeric/supernode.h"

namespace acstab::numeric {

/// Column pre-ordering applied before the pivot-selecting elimination.
enum class column_ordering {
    /// Natural order (the fill baseline of tests and benches).
    none,
    /// Approximate minimum degree (supervariables + the approximate
    /// external-degree bound + aggressive absorption, amd_order.h) at a
    /// per-pivot cost that scales to hundreds of thousands of nodes.
    /// The default.
    amd_approx,
};

/// Batched back-solve kernel of numeric_lu::solve_batch.
enum class batch_kernel {
    /// One right-hand side at a time inside the shared L/U traversal;
    /// bit-identical to repeated single solves.
    scalar,
    /// Split real/imag planes in an rhs-contiguous layout so the inner
    /// loop over the batch is unit-stride and auto-vectorizes; results
    /// agree with scalar to rounding (the complex multiply is expanded
    /// into real mul/adds the compiler may schedule differently).
    /// Only distinct from scalar for std::complex<double> batches of
    /// two or more right-hand sides.
    simd,
};

/// The one solver options type shared by symbolic_lu and the sparse_lu
/// facade (which forwards it verbatim), so the ordering knob is defined
/// exactly once.
struct lu_options {
    /// Fill-reducing column pre-ordering.
    column_ordering ordering = column_ordering::amd_approx;
};

/// Threshold partial pivoting prefers a structural diagonal within this
/// fraction of its column's largest candidate (MNA structure, less
/// fill). The supernode partition takes detect_supernodes' default shape.
inline constexpr double pivot_tol = 0.1;

/// numeric_lu::factor's guard: element growth above which it probes the
/// factors (fresh pivoting bounds the L side by 1/pivot_tol = 10), and
/// the probe's backward error above which it re-pivots.
inline constexpr double refactor_growth_limit = 1e4;
inline constexpr double refactor_guard_tol = 1e-10;

/// Immutable symbolic factorization: pivot order, column ordering and the
/// L/U sparsity patterns (full symbolic reach, so any matrix with the seed
/// matrix's pattern can be refactored numerically against it). Pivots are
/// chosen from the seed matrix's values; the values themselves are
/// discarded — numeric_lu recomputes them per matrix.
template <class T>
class symbolic_lu {
public:
    using options = lu_options;

    /// The numeric L/U values of the seed factorization, aligned with the
    /// symbolic pattern arrays. The analysis computes them anyway (pivot
    /// selection needs the elimination); exporting them lets a one-shot
    /// caller seed its numeric_lu without repeating the numeric pass.
    struct factor_values {
        std::vector<T> lval;
        std::vector<T> uval;
    };

    explicit symbolic_lu(const csc_matrix<T>& a, options opt = {},
                         factor_values* values_out = nullptr)
        : n_(a.cols()), ordering_(opt.ordering)
    {
        if (a.rows() != n_)
            throw numeric_error("symbolic_lu: matrix must be square");
        analyze(a, values_out);
    }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    /// The column pre-ordering this analysis ran with.
    [[nodiscard]] column_ordering ordering() const noexcept { return ordering_; }
    /// Stored L entries plus the implicit unit diagonal.
    [[nodiscard]] std::size_t lower_nnz() const noexcept { return lrow_.size() + n_; }
    [[nodiscard]] std::size_t upper_nnz() const noexcept { return urow_.size(); }

    [[nodiscard]] const std::vector<std::size_t>& lcol_ptr() const noexcept { return lcol_ptr_; }
    [[nodiscard]] const std::vector<std::size_t>& lrow() const noexcept { return lrow_; }
    [[nodiscard]] const std::vector<std::size_t>& ucol_ptr() const noexcept { return ucol_ptr_; }
    /// Off-diagonal rows of each U column are sorted ascending (the order
    /// numeric_lu::refactor consumes them in); the diagonal is stored last.
    [[nodiscard]] const std::vector<std::size_t>& urow() const noexcept { return urow_; }
    /// Original row -> pivot position.
    [[nodiscard]] const std::vector<std::size_t>& pinv() const noexcept { return pinv_; }
    /// Pivot step -> original column.
    [[nodiscard]] const std::vector<std::size_t>& q() const noexcept { return q_; }
    /// Supernode partition of the pivot columns (supernode.h), computed
    /// once at analysis time; numeric_lu's blocked mode is built on it.
    [[nodiscard]] const supernode_partition& supernodes() const noexcept { return sn_; }

private:
    void analyze(const csc_matrix<T>& a, factor_values* values_out)
    {
        constexpr std::ptrdiff_t unset = -1;
        q_.resize(n_);
        std::iota(q_.begin(), q_.end(), std::size_t{0});
        if (ordering_ == column_ordering::amd_approx)
            q_ = approx_minimum_degree_order(n_, a.col_ptr(), a.row_idx());

        std::vector<std::ptrdiff_t> pinv(n_, unset);
        lcol_ptr_.assign(n_ + 1, 0);
        ucol_ptr_.assign(n_ + 1, 0);
        // Pivoting needs the numeric elimination; the values live in these
        // temporaries and are dropped once the pattern is fixed — unless
        // the caller asked for them via values_out.
        std::vector<T> lval;
        std::vector<T> uval;

        std::vector<T> x(n_, T{});
        std::vector<std::size_t> mark(n_, 0);
        std::vector<std::size_t> postorder;
        postorder.reserve(n_);
        struct frame {
            std::size_t node;
            std::size_t child;
        };
        std::vector<frame> stack;

        for (std::size_t k = 0; k < n_; ++k) {
            const std::size_t col = q_[k];
            const std::size_t stamp = k + 1;
            postorder.clear();

            // Symbolic: depth-first search of the reach set of A(:, col)
            // through the columns of L built so far.
            for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p) {
                const std::size_t root = a.row_idx()[p];
                if (mark[root] == stamp)
                    continue;
                mark[root] = stamp;
                stack.push_back({root, 0});
                while (!stack.empty()) {
                    frame& f = stack.back();
                    const std::ptrdiff_t c = pinv[f.node];
                    bool descended = false;
                    if (c >= 0) {
                        const std::size_t begin = lcol_ptr_[static_cast<std::size_t>(c)];
                        const std::size_t end = lcol_ptr_[static_cast<std::size_t>(c) + 1];
                        while (begin + f.child < end) {
                            const std::size_t next = lrow_[begin + f.child];
                            ++f.child;
                            if (mark[next] != stamp) {
                                mark[next] = stamp;
                                stack.push_back({next, 0});
                                descended = true;
                                break;
                            }
                        }
                    }
                    if (!descended && (c < 0 || lcol_ptr_[static_cast<std::size_t>(c)] + f.child
                                           >= lcol_ptr_[static_cast<std::size_t>(c) + 1])) {
                        postorder.push_back(f.node);
                        stack.pop_back();
                    }
                }
            }

            // Numeric: scatter A(:, col), then eliminate in reverse postorder.
            for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p)
                x[a.row_idx()[p]] = a.values()[p];
            for (std::size_t idx = postorder.size(); idx-- > 0;) {
                const std::size_t i = postorder[idx];
                const std::ptrdiff_t c = pinv[i];
                if (c < 0)
                    continue;
                const T xi = x[i];
                if (xi == T{})
                    continue;
                for (std::size_t p = lcol_ptr_[static_cast<std::size_t>(c)];
                     p < lcol_ptr_[static_cast<std::size_t>(c) + 1]; ++p)
                    x[lrow_[p]] -= lval[p] * xi;
            }

            // Pivot: largest magnitude among not-yet-pivotal rows, with a
            // threshold preference for the structural diagonal.
            std::ptrdiff_t ipiv = unset;
            double best = 0.0;
            for (const std::size_t i : postorder) {
                if (pinv[i] != unset)
                    continue;
                const double mag = std::abs(x[i]);
                if (mag > best) {
                    best = mag;
                    ipiv = static_cast<std::ptrdiff_t>(i);
                }
            }
            if (ipiv == unset || best == 0.0)
                throw numeric_error("symbolic_lu: singular matrix at column "
                                    + std::to_string(col));
            if (pinv[col] == unset && std::abs(x[col]) >= pivot_tol * best)
                ipiv = static_cast<std::ptrdiff_t>(col);
            const T pivot = x[static_cast<std::size_t>(ipiv)];

            // Emit the full symbolic reach of U(:, k) and L(:, k) — even
            // entries that happen to be numerically zero in the seed — so
            // the pattern is purely structural (value-independent).
            for (const std::size_t i : postorder) {
                if (pinv[i] != unset) {
                    urow_.push_back(static_cast<std::size_t>(pinv[i]));
                    uval.push_back(x[i]);
                }
            }
            urow_.push_back(k);
            uval.push_back(pivot);
            ucol_ptr_[k + 1] = urow_.size();

            pinv[static_cast<std::size_t>(ipiv)] = static_cast<std::ptrdiff_t>(k);
            for (const std::size_t i : postorder) {
                if (pinv[i] == unset) {
                    lrow_.push_back(i);
                    lval.push_back(x[i] / pivot);
                }
                x[i] = T{};
            }
            lcol_ptr_[k + 1] = lrow_.size();
        }

        // Renumber L's rows into pivot order now that pinv is complete.
        pinv_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i)
            pinv_[i] = static_cast<std::size_t>(pinv[i]);
        for (auto& r : lrow_)
            r = pinv_[r];

        // refactor() consumes each U column in ascending pivot order;
        // sort the off-diagonal rows (with their values kept aligned for
        // a potential export; solve order is insensitive).
        std::vector<std::pair<std::size_t, T>> col;
        for (std::size_t k = 0; k < n_; ++k) {
            const std::size_t begin = ucol_ptr_[k];
            const std::size_t last = ucol_ptr_[k + 1] - 1;
            col.clear();
            for (std::size_t p = begin; p < last; ++p)
                col.emplace_back(urow_[p], uval[p]);
            std::sort(col.begin(), col.end(),
                      [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
            for (std::size_t p = begin; p < last; ++p) {
                urow_[p] = col[p - begin].first;
                uval[p] = col[p - begin].second;
            }
        }

        if (values_out != nullptr) {
            values_out->lval = std::move(lval);
            values_out->uval = std::move(uval);
        }

        // The L rows are in pivot space now, which is what the supernode
        // nesting rule is defined over.
        sn_ = detect_supernodes(n_, lcol_ptr_, lrow_);
    }

    std::size_t n_ = 0;
    column_ordering ordering_ = column_ordering::amd_approx;
    std::vector<std::size_t> lcol_ptr_, lrow_;
    std::vector<std::size_t> ucol_ptr_, urow_;
    std::vector<std::size_t> pinv_;
    std::vector<std::size_t> q_;
    supernode_partition sn_;
};

/// Per-worker numeric factorization bound to a shared symbolic_lu. Holds
/// only L/U values plus O(n) scratch; refactor(), solve_in_place() and
/// solve_batch() never allocate, and neither does factor() unless it
/// re-pivots. One instance is NOT thread-safe (shared scratch); the
/// symbolic object it points at is.
template <class T>
class numeric_lu {
public:
    explicit numeric_lu(std::shared_ptr<const symbolic_lu<T>> sym)
        : sym_(std::move(sym)), lval_(sym_->lrow().size()), uval_(sym_->urow().size()),
          work_(sym_->size(), T{}), scratch_(sym_->size()), probe_x_(sym_->size()),
          probe_r_(sym_->size())
    {
    }

    /// Adopt the seed values the symbolic analysis computed anyway, so a
    /// one-shot factor-and-solve (the sparse_lu facade) does not repeat
    /// the numeric elimination.
    numeric_lu(std::shared_ptr<const symbolic_lu<T>> sym,
               typename symbolic_lu<T>::factor_values&& seed)
        : sym_(std::move(sym)), lval_(std::move(seed.lval)), uval_(std::move(seed.uval)),
          work_(sym_->size(), T{}), scratch_(sym_->size()), probe_x_(sym_->size()),
          probe_r_(sym_->size())
    {
        if (lval_.size() != sym_->lrow().size() || uval_.size() != sym_->urow().size())
            throw numeric_error("numeric_lu: seed values do not match the symbolic pattern");
    }

    [[nodiscard]] const symbolic_lu<T>& symbolic() const noexcept { return *sym_; }
    [[nodiscard]] std::size_t size() const noexcept { return sym_->size(); }

    /// Compute the numeric factors of a matrix with the symbolic object's
    /// sparsity pattern, reusing its pivot order (no search, no
    /// allocation). Throws numeric_error on an exactly-zero pivot; the
    /// values are then undefined but the instance may be refactored again.
    /// In supernodal mode the blocked elimination runs instead of the
    /// column-at-a-time loop; both fill the same CSC value arrays (the
    /// blocked path additionally fills its dense panels), so every solve
    /// path stays valid either way.
    void refactor(const csc_matrix<T>& a)
    {
        const std::size_t n = sym_->size();
        if (a.rows() != n || a.cols() != n)
            throw numeric_error("numeric_lu: refactor size mismatch");
        if (snmode_)
            refactor_supernodal(a);
        else
            refactor_column(a);
        // Growth witness from three tight contiguous passes (kept out of
        // the indirect-indexed elimination loops so they stay lean).
        const double amax = max_l1(a.values());
        growth_ = std::max(max_l1(lval_), amax > 0.0 ? max_l1(uval_) / amax : 0.0);
    }

    /// What factor() did besides refactoring under the held order.
    struct factor_result {
        bool probed = false;    ///< the growth witness tripped and the probe ran
        bool repivoted = false; ///< a fresh pivot order was built from the matrix
    };

    /// The guarded refactorization every reused-order caller goes
    /// through: refactor under the held pivot order, and re-pivot from a's
    /// own values when that order is stale — an exact zero pivot, or
    /// growth above refactor_growth_limit confirmed by the all-ones probe.
    /// A re-pivot analyses a under the same column ordering and refactors
    /// (seed values are not adopted, so it equals a first build); the
    /// instance keeps the new order, batch kernel and supernodal mode.
    /// Throws numeric_error only when a is singular under a fresh order.
    factor_result factor(const csc_matrix<T>& a)
    {
        if (a.rows() != size() || a.cols() != size())
            throw numeric_error("numeric_lu: factor size mismatch");
        factor_result res;
        try {
            refactor(a);
            if (!(growth_ > refactor_growth_limit))
                return res;
            res.probed = true;
            if (!(probe_backward_error(a) > refactor_guard_tol))
                return res;
        } catch (const numeric_error&) {
            // Exact zero pivot under the held order.
        }
        sym_ = std::make_shared<const symbolic_lu<T>>(a, lu_options{sym_->ordering()});
        lval_.assign(sym_->lrow().size(), T{});
        uval_.assign(sym_->urow().size(), T{});
        if (snmode_)
            init_supernodal();
        else
            panels_.clear(); // a later set_supernodal(true) rebuilds them
        refactor(a);
        res.repivoted = true;
        return res;
    }

private:
    /// Normwise backward error ||A x - 1||_inf / (||A||_max ||x||_inf + 1)
    /// of the factors on the all-ones right-hand side, which excites every
    /// column; the scaling keeps the threshold meaningful for badly scaled
    /// circuits. One solve and one SpMV on the instance's own scratch.
    [[nodiscard]] double probe_backward_error(const csc_matrix<T>& a)
    {
        std::fill(probe_x_.begin(), probe_x_.end(), T{1.0});
        solve_in_place(probe_x_.data());
        a.multiply_into(probe_x_.data(), probe_r_.data());
        double residual = 0.0;
        double xmax = 0.0;
        for (std::size_t i = 0; i < probe_r_.size(); ++i) {
            residual = std::max(residual, std::abs(probe_r_[i] - T{1.0}));
            xmax = std::max(xmax, std::abs(probe_x_[i]));
        }
        double amax = 0.0;
        for (const T& v : a.values())
            amax = std::max(amax, std::abs(v));
        return residual / (amax * xmax + 1.0);
    }

    void refactor_column(const csc_matrix<T>& a)
    {
        const std::size_t n = sym_->size();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        // Work in pivot space: w[pinv[row]] accumulates the current
        // column; every position touched lies in the stored L/U pattern
        // and is cleared as it is consumed, keeping w all-zero between
        // columns (and between refactor calls).
        std::vector<T>& w = work_;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t col = qperm[k];
            for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p)
                w[pinv[a.row_idx()[p]]] += a.values()[p];
            // Left-looking update: consume U rows in ascending pivot order
            // (sorted by the symbolic analysis).
            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            for (std::size_t p = ucol_ptr[k]; p < ulast; ++p) {
                const std::size_t j = urow[p];
                const T wj = w[j];
                uval_[p] = wj;
                w[j] = T{};
                if (wj == T{})
                    continue;
                for (std::size_t q = lcol_ptr[j]; q < lcol_ptr[j + 1]; ++q)
                    w[lrow[q]] -= lval_[q] * wj;
            }
            const T pivot = w[k];
            w[k] = T{};
            if (pivot == T{}) {
                // Restore the all-zero invariant before reporting so the
                // instance stays refactorable.
                for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p)
                    w[lrow[p]] = T{};
                throw numeric_error("numeric_lu: refactor hit a zero pivot at column "
                                    + std::to_string(col));
            }
            uval_[ulast] = pivot;
            for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p) {
                lval_[p] = w[lrow[p]] / pivot;
                w[lrow[p]] = T{};
            }
        }
    }

    /// True when the value type is interleaved double complex, in which
    /// case the blocked refactor kernels below do the multiply in split
    /// real/imaginary form (same expressions the inline fast path of
    /// std::complex uses, minus its non-finite recovery branch that
    /// blocks vectorization).
    static constexpr bool split_cplx_ = std::is_same_v<T, std::complex<double>>;

    /// a * b without the Annex-G recovery branch.
    [[nodiscard]] static T cmul_(T a, T b) noexcept
    {
        if constexpr (split_cplx_)
            return T{a.real() * b.real() - a.imag() * b.imag(),
                     a.real() * b.imag() + a.imag() * b.real()};
        else
            return a * b;
    }

    /// y[r] -= l[r] * u for r < m (unit stride both sides). Runs of 4+
    /// complex elements go through the AVX2+FMA kernel TU when the CPU
    /// has it (snk_ok_); shorter runs aren't worth the call.
    void mul_sub_(T* __restrict y, const T* __restrict l, T u, std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            const double ur = u.real();
            const double ui = u.imag();
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* __restrict lp = reinterpret_cast<const double*>(l);
            if (snk_ok_ && m >= 4) {
                snk::cax_sub(yp, lp, ur, ui, m);
                return;
            }
            for (std::size_t d = 0; d < 2 * m; d += 2) {
                const double lr = lp[d];
                const double li = lp[d + 1];
                yp[d] -= lr * ur - li * ui;
                yp[d + 1] -= lr * ui + li * ur;
            }
        } else {
            for (std::size_t r = 0; r < m; ++r)
                y[r] -= l[r] * u;
        }
    }

    /// tmp[r] = l[r] * u (assignment form: the first contributing column
    /// of a run initializes the accumulator, so no zeroing pass).
    void mul_set_(T* __restrict y, const T* __restrict l, T u, std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            const double ur = u.real();
            const double ui = u.imag();
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* __restrict lp = reinterpret_cast<const double*>(l);
            if (snk_ok_ && m >= 4) {
                snk::cax_set(yp, lp, ur, ui, m);
                return;
            }
            for (std::size_t d = 0; d < 2 * m; d += 2) {
                const double lr = lp[d];
                const double li = lp[d + 1];
                yp[d] = lr * ur - li * ui;
                yp[d + 1] = lr * ui + li * ur;
            }
        } else {
            for (std::size_t r = 0; r < m; ++r)
                y[r] = l[r] * u;
        }
    }

    /// tmp[r] += l[r] * u.
    void mul_add_(T* __restrict y, const T* __restrict l, T u, std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            const double ur = u.real();
            const double ui = u.imag();
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* __restrict lp = reinterpret_cast<const double*>(l);
            if (snk_ok_ && m >= 4) {
                snk::cax_add(yp, lp, ur, ui, m);
                return;
            }
            for (std::size_t d = 0; d < 2 * m; d += 2) {
                const double lr = lp[d];
                const double li = lp[d + 1];
                yp[d] += lr * ur - li * ui;
                yp[d + 1] += lr * ui + li * ur;
            }
        } else {
            for (std::size_t r = 0; r < m; ++r)
                y[r] += l[r] * u;
        }
    }

    /// Fused pair forms of mul_set_/mul_add_: y op= l0*u0 + l1*u1 in one
    /// pass over y.
    void mul_set2_(T* __restrict y, const T* l0, T u0, const T* l1, T u1,
                   std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* l0p = reinterpret_cast<const double*>(l0);
            const double* l1p = reinterpret_cast<const double*>(l1);
            if (snk_ok_ && m >= 4) {
                snk::cax_set2(yp, l0p, u0.real(), u0.imag(), l1p, u1.real(), u1.imag(), m);
                return;
            }
        }
        for (std::size_t r = 0; r < m; ++r)
            y[r] = cmul_(l0[r], u0) + cmul_(l1[r], u1);
    }

    void mul_add2_(T* __restrict y, const T* l0, T u0, const T* l1, T u1,
                   std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* l0p = reinterpret_cast<const double*>(l0);
            const double* l1p = reinterpret_cast<const double*>(l1);
            if (snk_ok_ && m >= 4) {
                snk::cax_add2(yp, l0p, u0.real(), u0.imag(), l1p, u1.real(), u1.imag(), m);
                return;
            }
        }
        for (std::size_t r = 0; r < m; ++r)
            y[r] += cmul_(l0[r], u0) + cmul_(l1[r], u1);
    }

    void mul_sub2_(T* __restrict y, const T* l0, T u0, const T* l1, T u1,
                   std::size_t m) const noexcept
    {
        if constexpr (split_cplx_) {
            double* __restrict yp = reinterpret_cast<double*>(y);
            const double* l0p = reinterpret_cast<const double*>(l0);
            const double* l1p = reinterpret_cast<const double*>(l1);
            if (snk_ok_ && m >= 4) {
                snk::cax_sub2(yp, l0p, u0.real(), u0.imag(), l1p, u1.real(), u1.imag(), m);
                return;
            }
        }
        for (std::size_t r = 0; r < m; ++r)
            y[r] -= cmul_(l0[r], u0) + cmul_(l1[r], u1);
    }

    /// w[rows[r]] -= l[r] * u: direct one-column scatter for width-1
    /// runs, where staging through the accumulator would cost two extra
    /// passes over the sub-rows.
    static void scatter_sub1_(T* w, const std::size_t* rows, const T* l, T u,
                              std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            w[rows[r]] -= cmul_(l[r], u);
    }

    /// w[rows[r]] -= l0[r] * u0 + l1[r] * u1: fused two-column scatter.
    static void scatter_sub2_(T* w, const std::size_t* rows, const T* l0, T u0, const T* l1,
                              T u1, std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            w[rows[r]] -= cmul_(l0[r], u0) + cmul_(l1[r], u1);
    }

    /// w[rows[r]] -= t[r]: drain of the staged sub-row accumulator.
    static void scatter_sub_acc_(T* w, const std::size_t* rows, const T* t,
                                 std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            w[rows[r]] -= t[r];
    }

    /// Panel-column drains: like the scatter helpers above but indexed by
    /// the precomputed target-panel slots, so the read-modify-writes land
    /// in the current (cache-resident) panel column rather than the
    /// n-sized work vector.
    static void panel_sub1_(T* pc, const std::uint32_t* slot, const T* l, T u,
                            std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            pc[slot[r]] -= cmul_(l[r], u);
    }

    static void panel_sub2_(T* pc, const std::uint32_t* slot, const T* l0, T u0, const T* l1,
                            T u1, std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            pc[slot[r]] -= cmul_(l0[r], u0) + cmul_(l1[r], u1);
    }

    static void panel_sub_acc_(T* pc, const std::uint32_t* slot, const T* t,
                               std::size_t m) noexcept
    {
        for (std::size_t r = 0; r < m; ++r)
            pc[slot[r]] -= t[r];
    }

    /// Blocked left-looking elimination over the symbolic supernode
    /// partition. Identical structure to refactor_column, but the U
    /// entries of a target column are consumed per *source supernode*:
    /// within one supernode the entries lie in one span of pivot rows
    /// ending at the supernode's last column (the nested L patterns close
    /// the reach through the dense diagonal block), so one run costs a
    /// dense unit-lower triangular solve against the source's diagonal
    /// block plus a dense rectangular update — instead of one indirect
    /// scatter per source column as in the column path.
    ///
    /// The target column's L region (pivot row included) accumulates in
    /// its own dense panel column rather than the work vector: deposits
    /// at or below the target column drain into the cache-resident panel
    /// through precomputed slot lists (in-block sources are fully dense,
    /// no indices at all), only rows above the target stay in the n-sized
    /// work vector for the later triangular solves that consume them.
    /// The pivot then scales the panel's L region in place (one complex
    /// division per column instead of one per L entry) and the CSC L
    /// values are gathered out of the panel. Results agree with
    /// refactor_column to rounding.
    void refactor_supernodal(const csc_matrix<T>& a)
    {
        const std::size_t n = sym_->size();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const supernode_partition& sn = sym_->supernodes();
        std::vector<T>& w = work_;
        const std::uint32_t* slot_cur = sn_slots_.data();
        std::uint32_t* pos = sn_pos_.data();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t t = sn.col_super[k];
            const std::size_t ft = sn.first[t];
            const std::size_t wt = sn.width(t);
            const std::size_t ldt = panel_ld_[t];
            T* pant = panels_.data() + panel_off_[t];
            T* pancol_t = pant + (k - ft) * ldt; // target's panel column

            if (k == ft) {
                // Entering a new target supernode: refresh the pivot-row
                // -> panel-slot map the matrix scatter below routes
                // through.
                for (std::size_t i = 0; i < wt; ++i)
                    pos[ft + i] = static_cast<std::uint32_t>(i);
                const std::size_t* rt = sn.rows.data() + sn.row_ptr[t];
                const std::size_t mt = sn.row_ptr[t + 1] - sn.row_ptr[t];
                for (std::size_t z = 0; z < mt; ++z)
                    pos[rt[z]] = static_cast<std::uint32_t>(wt + z);
            }

            // Scatter the matrix column: rows above the target into the
            // work vector (consumed by the triangular solves below), the
            // pivot row and everything under it straight into the freshly
            // cleared panel column.
            std::fill(pancol_t + (k - ft), pancol_t + ldt, T{});
            const std::size_t col = qperm[k];
            for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p) {
                const std::size_t r = pinv[a.row_idx()[p]];
                if (r < k)
                    w[r] += a.values()[p];
                else
                    pancol_t[pos[r]] += a.values()[p];
            }

            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            std::size_t p = ucol_ptr[k];
            const sn_run* run = sn_runs_.data() + sn_run_ptr_[k];
            const sn_run* const run_end = sn_runs_.data() + sn_run_ptr_[k + 1];
            for (; run != run_end; ++run) {
                const std::size_t j = run->j;
                const std::size_t m = run->m;
                const std::size_t msub = run->msub;
                const bool inblk = j >= ft;
                const std::uint32_t* sl = slot_cur;
                if (!inblk)
                    slot_cur += msub - run->wsub;

                if (m == 1) {
                    // Singleton span: no triangular solve, no staging —
                    // exactly the column path's cost for this source.
                    const T u0 = w[j];
                    w[j] = T{};
                    uval_[p] = u0;
                    if (inblk) { // source is the target's own supernode
                        pancol_t[j - ft] = u0;
                        if (u0 != T{}) {
                            // Diagonal tail and sub-rows are one
                            // contiguous range in both panel columns.
                            const T* lcol = panels_.data() + run->loff;
                            mul_sub_(pancol_t + (k - ft), lcol + (k - ft), u0,
                                     ldt - (k - ft));
                        }
                    } else if (u0 != T{} && msub != 0) {
                        // Off-block singleton: everything it needs is in
                        // the run record, touched only when the value
                        // actually contributes.
                        const std::size_t wsub = run->wsub;
                        const T* lsub = panels_.data() + run->loff + (run->lds - msub);
                        scatter_sub1_(w.data(), sn.rows.data() + run->rows, lsub, u0, wsub);
                        panel_sub1_(pancol_t, sl, lsub + wsub, u0, msub - wsub);
                    }
                    ++p;
                    continue;
                }

                const std::size_t jrel = run->jrel;
                const std::size_t lds = run->lds;
                const T* lrun = panels_.data() + run->loff; // span's first L column

                // Dense unit-lower triangular solve with the trailing
                // m x m sub-block of the source's diagonal block: yields
                // this column's U values for the whole span. Contributing
                // (nonzero) columns are collected as their values become
                // final, so the update passes below skip exact zeros —
                // including any structural-zero gap positions the relaxed
                // partition padded into the span (their w is zero and
                // every product feeding them is zero, so they stay 0.0).
                T* u = sn_ubuf_.data();
                for (std::size_t i = 0; i < m; ++i) {
                    u[i] = w[j + i];
                    w[j + i] = T{};
                }
                std::size_t* idx = sn_idx_.data();
                std::size_t nc = 0;
                for (std::size_t i = 0; i < m; ++i) {
                    const T ui = u[i];
                    if (inblk)
                        pancol_t[j - ft + i] = ui;
                    if (ui == T{})
                        continue;
                    idx[nc++] = i;
                    mul_sub_(u + i + 1, lrun + i * lds + (jrel + i + 1), ui, m - i - 1);
                }
                // CSC stores only the structural subset of the span.
                const std::size_t cnt = run->cnt;
                if (cnt == m) {
                    for (std::size_t i = 0; i < m; ++i)
                        uval_[p + i] = u[i];
                } else {
                    for (std::size_t e = 0; e < cnt; ++e)
                        uval_[p + e] = u[urow[p + e] - j];
                }
                p += cnt;
                if (nc == 0)
                    continue;

                // In-block target update (source == target supernode):
                // the diagonal tail and the shared sub-rows are one
                // contiguous range of the panel columns, so the whole
                // update is dense rank-2 streams — no staging, no
                // indices.
                if (inblk) {
                    const std::size_t len = ldt - (k - ft);
                    T* dst = pancol_t + (k - ft);
                    const T* lc = lrun + (k - ft);
                    std::size_t ii = 0;
                    if (nc & 1) {
                        mul_sub_(dst, lc + idx[0] * lds, u[idx[0]], len);
                        ii = 1;
                    }
                    for (; ii + 1 < nc; ii += 2)
                        mul_sub2_(dst, lc + idx[ii] * lds, u[idx[ii]],
                                  lc + idx[ii + 1] * lds, u[idx[ii + 1]], len);
                    continue;
                }

                // Rectangular update of an off-block source's sub-rows.
                // One or two contributing columns scatter directly
                // (staging passes would outweigh the saved scatters);
                // more accumulate pairwise in a dense buffer (unit stride
                // over each panel column) and drain once — rows above the
                // target into the work vector, the rest into the target's
                // panel column through the precomputed slots.
                if (msub != 0) {
                    const std::size_t wsub = run->wsub;
                    const std::size_t* rows = sn.rows.data() + run->rows;
                    const T* lsub0 = lrun + (lds - msub);
                    if (nc == 1) {
                        const T* l0 = lsub0 + idx[0] * lds;
                        scatter_sub1_(w.data(), rows, l0, u[idx[0]], wsub);
                        panel_sub1_(pancol_t, sl, l0 + wsub, u[idx[0]], msub - wsub);
                    } else if (nc == 2) {
                        const T* l0 = lsub0 + idx[0] * lds;
                        const T* l1 = lsub0 + idx[1] * lds;
                        scatter_sub2_(w.data(), rows, l0, u[idx[0]], l1, u[idx[1]], wsub);
                        panel_sub2_(pancol_t, sl, l0 + wsub, u[idx[0]], l1 + wsub,
                                    u[idx[1]], msub - wsub);
                    } else {
                        T* tmp = sn_subtmp_.data();
                        std::size_t ii;
                        if (nc & 1) {
                            mul_set_(tmp, lsub0 + idx[0] * lds, u[idx[0]], msub);
                            ii = 1;
                        } else {
                            mul_set2_(tmp, lsub0 + idx[0] * lds, u[idx[0]],
                                      lsub0 + idx[1] * lds, u[idx[1]], msub);
                            ii = 2;
                        }
                        for (; ii + 1 < nc; ii += 2)
                            mul_add2_(tmp, lsub0 + idx[ii] * lds, u[idx[ii]],
                                      lsub0 + idx[ii + 1] * lds, u[idx[ii + 1]], msub);
                        scatter_sub_acc_(w.data(), rows, tmp, wsub);
                        panel_sub_acc_(pancol_t, sl, tmp + wsub, msub - wsub);
                    }
                }
            }

            // The pivot accumulated in the panel; rows above it were all
            // consumed by the runs, so the work vector is already clean
            // either way.
            const T pivot = pancol_t[k - ft];
            if (pivot == T{})
                throw numeric_error("numeric_lu: refactor hit a zero pivot at column "
                                    + std::to_string(col));
            uval_[ulast] = pivot;
            const T rpivot = T{1.0} / pivot;
            sn_rdiag_[k] = rpivot;
            // Dense in-place scale of the panel's L region (padded
            // positions hold exact zeros and stay zero), then gather the
            // CSC L values from their panel slots.
            for (std::size_t r = k - ft + 1; r < ldt; ++r)
                pancol_t[r] = cmul_(pancol_t[r], rpivot);
            for (std::size_t q = lcol_ptr[k]; q < lcol_ptr[k + 1]; ++q)
                lval_[q] = pancol_t[lpanel_pos_[q]];
        }
    }

public:

    /// Element growth of the last refactor (L1-norm proxies): the larger
    /// of the biggest |L| multiplier and the classical U-side growth
    /// factor max|U| / max|A|. Fresh threshold pivoting bounds the L side
    /// by 1/pivot_tol and keeps the U side modest; a reused pivot order
    /// that has gone stale lets either blow up, so this is the free
    /// staleness witness factor() reads before deciding whether a probe
    /// (and possibly a fresh pivot order) is warranted.
    [[nodiscard]] double growth() const noexcept { return growth_; }

    /// Select the batched back-solve kernel (default scalar). The SIMD
    /// kernel grows its split-plane scratch lazily to the largest batch
    /// seen, so after the first batch of a given width the solve loop is
    /// allocation-free again.
    void set_batch_kernel(batch_kernel k) noexcept { kernel_ = k; }
    [[nodiscard]] batch_kernel kernel() const noexcept { return kernel_; }

    /// Enable the supernodal/blocked numeric path: refactor() runs the
    /// blocked elimination over the symbolic supernode partition and
    /// solve_batch's SIMD kernel walks dense panels per supernode
    /// instead of CSC columns. The CSC value arrays are maintained in
    /// both modes, so scalar solves (and the const allocating solve())
    /// stay valid and blocked-vs-column answers agree to rounding.
    /// Enabling loads the panels from the current CSC values, so factors
    /// adopted from the symbolic seed are usable without a refactor.
    void set_supernodal(bool on)
    {
        if (on && panels_.empty() && sym_->size() > 0)
            init_supernodal();
        if (on)
            load_panels_from_values();
        snmode_ = on;
    }
    [[nodiscard]] bool supernodal() const noexcept { return snmode_; }

private:
    /// One-time panel bookkeeping: per-supernode panel offsets/leading
    /// dimensions, the CSC-L-entry -> panel-row map, and the per-column
    /// split of U entries into off-block and in-block halves.
    void init_supernodal()
    {
        const std::size_t n = sym_->size();
        const supernode_partition& sn = sym_->supernodes();
        const std::size_t ns = sn.count();
        panel_off_.assign(ns + 1, 0);
        panel_ld_.assign(ns, 0);
        std::size_t max_w = 1;
        std::size_t max_sub = 0;
        for (std::size_t s = 0; s < ns; ++s) {
            const std::size_t w = sn.width(s);
            const std::size_t m = sn.sub_rows(s);
            panel_ld_[s] = w + m;
            panel_off_[s + 1] = panel_off_[s] + panel_ld_[s] * w;
            max_w = std::max(max_w, w);
            max_sub = std::max(max_sub, m);
        }
        panels_.assign(panel_off_[ns], T{});
        sn_ubuf_.resize(max_w);
        sn_subtmp_.resize(max_sub);
        sn_idx_.resize(max_w);
        sn_rdiag_.assign(n, T{});
        sn_max_sub_ = max_sub;

        // Panel row of every CSC L entry within its column's supernode:
        // in-block rows map to their offset in the diagonal block,
        // sub-rows to width + their slot in the supernode's shared
        // (sorted) sub-row list.
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        lpanel_pos_.resize(lrow.size());
        std::vector<std::size_t> slot(n, 0);
        for (std::size_t s = 0; s < ns; ++s) {
            const std::size_t f = sn.first[s];
            const std::size_t e = sn.first[s + 1];
            const std::size_t w = sn.width(s);
            for (std::size_t r = sn.row_ptr[s]; r < sn.row_ptr[s + 1]; ++r)
                slot[sn.rows[r]] = w + (r - sn.row_ptr[s]);
            for (std::size_t k = f; k < e; ++k)
                for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p) {
                    const std::size_t row = lrow[p];
                    lpanel_pos_[p] = row < e ? row - f : slot[row];
                }
        }

        // First in-block U entry of each column (rows >= the column's
        // supernode start); entries before it are off-block and stay on
        // the CSC back-solve path.
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        u_split_.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t f = sn.first[sn.col_super[k]];
            std::size_t p = ucol_ptr[k];
            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            while (p < ulast && urow[p] < f)
                ++p;
            u_split_[k] = p;
        }

        // Flat run partition of every column's off-diagonal U entries:
        // group the (sorted) entries by source supernode and record each
        // group's dense span — from its first entry to the source's reach
        // end (the supernode's last column; the diagonal block closes the
        // reach), or just before the target column when the source is the
        // target's own supernode. With the strict partition every span
        // position is a CSC entry (cnt == m); relaxed amalgamation leaves
        // structural-zero gaps the dense solve carries as exact zeros.
        // Purely symbolic, so derived once here instead of re-walking
        // urow/col_super on every refactor.
        sn_run_ptr_.assign(n + 1, 0);
        sn_runs_.clear();
        sn_runs_.reserve(urow.size() / 2);
        sn_slots_.clear();
        sn_pos_.assign(n, 0);
        // Slot map of the current TARGET supernode, maintained while the
        // column sweep below crosses supernode boundaries (the refactor
        // rebuilds the same map at run time for the matrix scatter). The
        // stamp marks which rows the current map actually covers: a
        // relaxed source's union sub-rows can include rows outside the
        // target's pattern — their deposits are exact zeros, so they are
        // routed to the (harmless) pivot slot rather than a stale index.
        std::vector<std::size_t> pos_stamp(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t t = sn.col_super[k];
            if (k == sn.first[t]) {
                const std::size_t w = sn.width(t);
                for (std::size_t i = 0; i < w; ++i) {
                    sn_pos_[sn.first[t] + i] = static_cast<std::uint32_t>(i);
                    pos_stamp[sn.first[t] + i] = t + 1;
                }
                for (std::size_t r = sn.row_ptr[t]; r < sn.row_ptr[t + 1]; ++r) {
                    sn_pos_[sn.rows[r]] =
                        static_cast<std::uint32_t>(w + (r - sn.row_ptr[t]));
                    pos_stamp[sn.rows[r]] = t + 1;
                }
            }
            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            std::size_t p = ucol_ptr[k];
            while (p < ulast) {
                const std::size_t j = urow[p];
                const std::size_t s = sn.col_super[j];
                const std::size_t run_end = s == t ? k : sn.first[s + 1];
                std::size_t cnt = 1;
                while (p + cnt < ulast && urow[p + cnt] < run_end)
                    ++cnt;
                const std::size_t jrel = j - sn.first[s];
                const std::size_t loff = panel_off_[s] + jrel * panel_ld_[s];
                // Split an off-block source's sub-rows at the target
                // column: rows above it update the work vector, rows at
                // or below it drain into the target's panel column, so
                // their slots are emitted here once instead of resolved
                // per refactor. In-block sources are fully dense against
                // the target panel and need neither.
                std::size_t wsub = 0;
                if (s != t) {
                    const std::size_t* rs = sn.rows.data() + sn.row_ptr[s];
                    const std::size_t ms = sn.sub_rows(s);
                    while (wsub < ms && rs[wsub] < k)
                        ++wsub;
                    for (std::size_t z = wsub; z < ms; ++z)
                        sn_slots_.push_back(pos_stamp[rs[z]] == t + 1
                                                ? sn_pos_[rs[z]]
                                                : static_cast<std::uint32_t>(k - sn.first[t]));
                }
                sn_runs_.push_back({j, run_end - j, cnt, jrel, loff, panel_ld_[s],
                                    sn.sub_rows(s), sn.row_ptr[s], wsub});
                p += cnt;
            }
            sn_run_ptr_[k + 1] = sn_runs_.size();
        }
    }

    /// Fill the dense panels from the CSC values (pure data movement);
    /// structural zeros inside the dense blocks were never written and
    /// stay zero from the panel allocation.
    void load_panels_from_values()
    {
        const std::size_t n = sym_->size();
        const supernode_partition& sn = sym_->supernodes();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t t = sn.col_super[k];
            const std::size_t ft = sn.first[t];
            T* pancol = panels_.data() + panel_off_[t] + (k - ft) * panel_ld_[t];
            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            for (std::size_t p = u_split_[k]; p < ulast; ++p)
                pancol[urow[p] - ft] = uval_[p];
            pancol[k - ft] = uval_[ulast];
            // Reciprocal pivot for the blocked back solve; a zero pivot
            // (factors never computed) poisons it exactly as division
            // would have.
            sn_rdiag_[k] = T{1.0} / uval_[ulast];
            for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p)
                pancol[lpanel_pos_[p]] = lval_[p];
        }
    }

public:

    /// Solve A X = B for a batch of right-hand sides.
    /// b[r] points at right-hand side r (length n); x is column-major
    /// n*nrhs and is fully overwritten with the solutions. b[r] must not
    /// alias any x column (use solve_in_place for that). One traversal of
    /// L and one of U serves the whole batch, so factor loads amortize
    /// across the right-hand sides. Non-const (uses the instance
    /// scratch): per-worker use only.
    void solve_batch(const T* const* b, std::size_t nrhs, T* x)
    {
        if constexpr (std::is_same_v<T, std::complex<double>>) {
            if (kernel_ == batch_kernel::simd && nrhs >= 2) {
                if (snmode_)
                    solve_batch_blocked(b, nrhs, x);
                else
                    solve_batch_simd(b, nrhs, x);
                return;
            }
        }
        solve_batch_scalar(b, nrhs, x);
    }

private:
    void solve_batch_scalar(const T* const* b, std::size_t nrhs, T* x)
    {
        const std::size_t n = sym_->size();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();

        // Scatter every column into pivot order.
        for (std::size_t r = 0; r < nrhs; ++r) {
            const T* bc = b[r];
            T* xc = x + r * n;
            for (std::size_t i = 0; i < n; ++i)
                xc[pinv[i]] = bc[i];
        }
        // Forward solve with unit-diagonal L, one pass over its columns.
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t pb = lcol_ptr[c];
            const std::size_t pe = lcol_ptr[c + 1];
            for (std::size_t r = 0; r < nrhs; ++r) {
                T* xc = x + r * n;
                const T yc = xc[c];
                if (yc == T{})
                    continue;
                for (std::size_t p = pb; p < pe; ++p)
                    xc[lrow[p]] -= lval_[p] * yc;
            }
        }
        // Back solve with U (diagonal entry stored last in each column).
        for (std::size_t c = n; c-- > 0;) {
            const std::size_t last = ucol_ptr[c + 1] - 1;
            const T diag = uval_[last];
            for (std::size_t r = 0; r < nrhs; ++r) {
                T* xc = x + r * n;
                const T v = xc[c] / diag;
                xc[c] = v;
                if (v == T{})
                    continue;
                for (std::size_t p = ucol_ptr[c]; p < last; ++p)
                    xc[urow[p]] -= uval_[p] * v;
            }
        }
        // Undo the column ordering (scratch is free again by this point
        // even when solve_in_place staged b through it: the scatter above
        // was its last read).
        for (std::size_t r = 0; r < nrhs; ++r) {
            T* xc = x + r * n;
            for (std::size_t c = 0; c < n; ++c)
                scratch_[qperm[c]] = xc[c];
            std::copy(scratch_.begin(), scratch_.end(), xc);
        }
    }

    /// SIMD batch kernel (std::complex<double> only): the batch lives in
    /// two split real/imag double planes laid out rhs-contiguously
    /// (lane r of pivot row i at [i * nrhs + r]), so every factor entry is
    /// loaded once per column while the inner loop over the batch is a
    /// unit-stride fused multiply-add chain the compiler vectorizes
    /// across right-hand sides. A column whose lanes are all zero skips
    /// its update loop entirely (the injection right-hand sides of the
    /// stability sweeps are mostly zeros). The U diagonal still divides
    /// through std::complex so both kernels share the same (robustly
    /// scaled) complex division.
    void solve_batch_simd(const T* const* b, std::size_t nrhs, T* x)
    {
        const std::size_t n = sym_->size();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();

        if (plane_re_.size() < n * nrhs) {
            plane_re_.resize(n * nrhs);
            plane_im_.resize(n * nrhs);
        }
        double* __restrict xr = plane_re_.data();
        double* __restrict xi = plane_im_.data();

        // Scatter into pivot order, splitting the complex lanes.
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t base = pinv[i] * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) {
                xr[base + r] = b[r][i].real();
                xi[base + r] = b[r][i].imag();
            }
        }
        // Forward solve with unit-diagonal L.
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t cb = c * nrhs;
            bool any = false;
            for (std::size_t r = 0; r < nrhs; ++r)
                any = any || xr[cb + r] != 0.0 || xi[cb + r] != 0.0;
            if (!any)
                continue;
            const std::size_t pe = lcol_ptr[c + 1];
            for (std::size_t p = lcol_ptr[c]; p < pe; ++p) {
                const double lr = lval_[p].real();
                const double li = lval_[p].imag();
                const std::size_t rb = lrow[p] * nrhs;
                for (std::size_t r = 0; r < nrhs; ++r) {
                    const double ar = xr[cb + r];
                    const double ai = xi[cb + r];
                    xr[rb + r] -= lr * ar - li * ai;
                    xi[rb + r] -= lr * ai + li * ar;
                }
            }
        }
        // Back solve with U (diagonal stored last in each column).
        for (std::size_t c = n; c-- > 0;) {
            const std::size_t last = ucol_ptr[c + 1] - 1;
            const T diag = uval_[last];
            const std::size_t cb = c * nrhs;
            bool any = false;
            for (std::size_t r = 0; r < nrhs; ++r) {
                const T v = T{xr[cb + r], xi[cb + r]} / diag;
                xr[cb + r] = v.real();
                xi[cb + r] = v.imag();
                any = any || v != T{};
            }
            if (!any)
                continue;
            for (std::size_t p = ucol_ptr[c]; p < last; ++p) {
                const double ur = uval_[p].real();
                const double ui = uval_[p].imag();
                const std::size_t rb = urow[p] * nrhs;
                for (std::size_t r = 0; r < nrhs; ++r) {
                    const double ar = xr[cb + r];
                    const double ai = xi[cb + r];
                    xr[rb + r] -= ur * ar - ui * ai;
                    xi[rb + r] -= ur * ai + ui * ar;
                }
            }
        }
        // Undo the column ordering while re-interleaving the planes.
        for (std::size_t r = 0; r < nrhs; ++r) {
            T* xc = x + r * n;
            for (std::size_t c = 0; c < n; ++c)
                xc[qperm[c]] = T{xr[c * nrhs + r], xi[c * nrhs + r]};
        }
    }

    /// Blocked split-complex batch kernel (supernodal mode): same plane
    /// layout and zero-lane skipping as solve_batch_simd, but the L
    /// forward pass walks dense panels per supernode — a dense
    /// unit-lower solve on the diagonal block, the rectangular sub-row
    /// update accumulated into contiguous scratch planes and scattered
    /// ONCE per supernode — and the U backward pass solves each
    /// supernode's dense upper-triangular block in place, leaving only
    /// the off-block U entries on the indirect CSC path. Agrees with the
    /// CSC kernels to rounding (per-row update sums are reassociated).
    void solve_batch_blocked(const T* const* b, std::size_t nrhs, T* x)
    {
        const std::size_t n = sym_->size();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        const supernode_partition& sn = sym_->supernodes();
        const std::size_t ns = sn.count();

        if (plane_re_.size() < n * nrhs) {
            plane_re_.resize(n * nrhs);
            plane_im_.resize(n * nrhs);
        }
        if (sn_plane_tr_.size() < sn_max_sub_ * nrhs) {
            sn_plane_tr_.resize(sn_max_sub_ * nrhs);
            sn_plane_ti_.resize(sn_max_sub_ * nrhs);
        }
        double* __restrict xr = plane_re_.data();
        double* __restrict xi = plane_im_.data();
        double* __restrict tr = sn_plane_tr_.data();
        double* __restrict ti = sn_plane_ti_.data();

        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t base = pinv[i] * nrhs;
            for (std::size_t r = 0; r < nrhs; ++r) {
                xr[base + r] = b[r][i].real();
                xi[base + r] = b[r][i].imag();
            }
        }

        // Forward solve with unit-diagonal L, one supernode at a time.
        for (std::size_t s = 0; s < ns; ++s) {
            const std::size_t f = sn.first[s];
            const std::size_t w = sn.width(s);
            const std::size_t msub = sn.sub_rows(s);
            const std::size_t ld = panel_ld_[s];
            const T* pan = panels_.data() + panel_off_[s];
            bool block_any = false;
            for (std::size_t c = f; c < f + w; ++c) {
                const std::size_t cb = c * nrhs;
                bool any = false;
                for (std::size_t r = 0; r < nrhs; ++r)
                    any = any || xr[cb + r] != 0.0 || xi[cb + r] != 0.0;
                if (!any)
                    continue;
                if (!block_any && msub != 0) {
                    std::fill(tr, tr + msub * nrhs, 0.0);
                    std::fill(ti, ti + msub * nrhs, 0.0);
                }
                block_any = true;
                const T* pancol = pan + (c - f) * ld;
                // Dense in-block update of the lanes below the diagonal.
                for (std::size_t rr = c - f + 1; rr < w; ++rr) {
                    const double lr = pancol[rr].real();
                    const double li = pancol[rr].imag();
                    if (lr == 0.0 && li == 0.0)
                        continue;
                    const std::size_t rb = (f + rr) * nrhs;
                    if (snk_ok_) {
                        snk::plane_sub(xr + rb, xi + rb, xr + cb, xi + cb, lr, li, nrhs);
                        continue;
                    }
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        const double ar = xr[cb + r];
                        const double ai = xi[cb + r];
                        xr[rb + r] -= lr * ar - li * ai;
                        xi[rb + r] -= lr * ai + li * ar;
                    }
                }
                // Sub-row contribution, accumulated contiguously.
                const T* lsub = pancol + w;
                for (std::size_t rr = 0; rr < msub; ++rr) {
                    const double lr = lsub[rr].real();
                    const double li = lsub[rr].imag();
                    if (lr == 0.0 && li == 0.0)
                        continue;
                    const std::size_t tb = rr * nrhs;
                    if (snk_ok_) {
                        snk::plane_add(tr + tb, ti + tb, xr + cb, xi + cb, lr, li, nrhs);
                        continue;
                    }
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        const double ar = xr[cb + r];
                        const double ai = xi[cb + r];
                        tr[tb + r] += lr * ar - li * ai;
                        ti[tb + r] += lr * ai + li * ar;
                    }
                }
            }
            if (block_any && msub != 0) {
                const std::size_t* rows = sn.rows.data() + sn.row_ptr[s];
                for (std::size_t rr = 0; rr < msub; ++rr) {
                    const std::size_t rb = rows[rr] * nrhs;
                    const std::size_t tb = rr * nrhs;
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        xr[rb + r] -= tr[tb + r];
                        xi[rb + r] -= ti[tb + r];
                    }
                }
            }
        }

        // Back solve with U: dense diagonal block per supernode, CSC for
        // the off-block entries above it.
        for (std::size_t s = ns; s-- > 0;) {
            const std::size_t f = sn.first[s];
            const std::size_t w = sn.width(s);
            const std::size_t ld = panel_ld_[s];
            const T* pan = panels_.data() + panel_off_[s];
            for (std::size_t c = f + w; c-- > f;) {
                const std::size_t cb = c * nrhs;
                const T* pancol = pan + (c - f) * ld;
                // Divide by the diagonal via the reciprocal precomputed
                // at refactor/load time: one complex multiply per lane
                // instead of one complex division.
                const double dr = sn_rdiag_[c].real();
                const double di = sn_rdiag_[c].imag();
                bool any;
                if (snk_ok_) {
                    any = snk::plane_scale(xr + cb, xi + cb, dr, di, nrhs);
                } else {
                    any = false;
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        const double ar = xr[cb + r];
                        const double ai = xi[cb + r];
                        const double vr = ar * dr - ai * di;
                        const double vi = ar * di + ai * dr;
                        xr[cb + r] = vr;
                        xi[cb + r] = vi;
                        any = any || vr != 0.0 || vi != 0.0;
                    }
                }
                if (!any)
                    continue;
                for (std::size_t rr = c - f; rr-- > 0;) {
                    const double ur = pancol[rr].real();
                    const double ui = pancol[rr].imag();
                    if (ur == 0.0 && ui == 0.0)
                        continue;
                    const std::size_t rb = (f + rr) * nrhs;
                    if (snk_ok_) {
                        snk::plane_sub(xr + rb, xi + rb, xr + cb, xi + cb, ur, ui, nrhs);
                        continue;
                    }
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        const double ar = xr[cb + r];
                        const double ai = xi[cb + r];
                        xr[rb + r] -= ur * ar - ui * ai;
                        xi[rb + r] -= ur * ai + ui * ar;
                    }
                }
                for (std::size_t p = ucol_ptr[c]; p < u_split_[c]; ++p) {
                    const double ur = uval_[p].real();
                    const double ui = uval_[p].imag();
                    const std::size_t rb = urow[p] * nrhs;
                    if (snk_ok_) {
                        snk::plane_sub(xr + rb, xi + rb, xr + cb, xi + cb, ur, ui, nrhs);
                        continue;
                    }
                    for (std::size_t r = 0; r < nrhs; ++r) {
                        const double ar = xr[cb + r];
                        const double ai = xi[cb + r];
                        xr[rb + r] -= ur * ar - ui * ai;
                        xi[rb + r] -= ur * ai + ui * ar;
                    }
                }
            }
        }

        for (std::size_t r = 0; r < nrhs; ++r) {
            T* xc = x + r * n;
            for (std::size_t c = 0; c < n; ++c)
                xc[qperm[c]] = T{xr[c * nrhs + r], xi[c * nrhs + r]};
        }
    }

public:
    /// Solve A x = b with b and the solution in the same length-n buffer.
    /// Non-const (uses the instance scratch): per-worker use only.
    void solve_in_place(T* x)
    {
        std::copy(x, x + sym_->size(), scratch_.begin());
        const T* b = scratch_.data();
        solve_batch(&b, 1, x);
    }

    /// Allocating single solve. Touches no instance scratch, so — unlike
    /// solve_batch/solve_in_place — concurrent calls on one shared
    /// factorization are safe (the sparse_lu facade relies on this).
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const
    {
        const std::size_t n = sym_->size();
        if (b.size() != n)
            throw numeric_error("numeric_lu: right-hand side has wrong length");
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        std::vector<T> y(n);
        for (std::size_t i = 0; i < n; ++i)
            y[pinv[i]] = b[i];
        for (std::size_t c = 0; c < n; ++c) {
            const T yc = y[c];
            if (yc == T{})
                continue;
            for (std::size_t p = lcol_ptr[c]; p < lcol_ptr[c + 1]; ++p)
                y[lrow[p]] -= lval_[p] * yc;
        }
        for (std::size_t c = n; c-- > 0;) {
            const std::size_t last = ucol_ptr[c + 1] - 1;
            const T xc = y[c] / uval_[last];
            y[c] = xc;
            if (xc == T{})
                continue;
            for (std::size_t p = ucol_ptr[c]; p < last; ++p)
                y[urow[p]] -= uval_[p] * xc;
        }
        std::vector<T> x(n);
        for (std::size_t c = 0; c < n; ++c)
            x[qperm[c]] = y[c];
        return x;
    }

private:
    [[nodiscard]] static double max_l1(const std::vector<T>& v) noexcept
    {
        double m = 0.0;
        for (const T& x : v) {
            const double mag = std::abs(std::real(x)) + std::abs(std::imag(x));
            if (mag > m)
                m = mag;
        }
        return m;
    }

    std::shared_ptr<const symbolic_lu<T>> sym_;
    std::vector<T> lval_;
    std::vector<T> uval_;
    std::vector<T> work_;    ///< refactor accumulator (pivot space)
    std::vector<T> scratch_; ///< permutation staging for batched solves
    std::vector<T> probe_x_; ///< factor(): probe solution
    std::vector<T> probe_r_; ///< factor(): probe SpMV
    batch_kernel kernel_ = batch_kernel::scalar;
    std::vector<double> plane_re_; ///< SIMD kernel: real lanes, grown lazily
    std::vector<double> plane_im_; ///< SIMD kernel: imaginary lanes
    double growth_ = 0.0;
    // Supernodal mode (set_supernodal). Panels are column-major dense
    // blocks, one per supernode: rows 0..w-1 hold the diagonal block
    // (U upper triangle including the diagonal, L strictly lower, unit
    // diagonal implicit), rows w..w+msub-1 the rectangular L sub-rows in
    // the partition's shared sorted order.
    bool snmode_ = false;
    std::vector<T> panels_;
    std::vector<std::size_t> panel_off_; ///< supernode -> panel start
    std::vector<std::size_t> panel_ld_;  ///< supernode -> leading dimension
    std::vector<std::size_t> lpanel_pos_; ///< CSC L entry -> panel row
    std::vector<std::size_t> u_split_;    ///< column -> first in-block U entry
    std::vector<T> sn_ubuf_;   ///< refactor: gathered run of U values
    std::vector<T> sn_subtmp_; ///< refactor: accumulated sub-row update
    std::vector<std::size_t> sn_idx_; ///< refactor: contributing columns of a run
    /// One symbolic run of a column's off-diagonal U entries: the `cnt`
    /// CSC entries falling inside one source supernode, solved as the
    /// dense span of `m` pivot rows from `j` to the source's reach end.
    /// Under relaxed amalgamation the span may cover structural zeros
    /// (cnt < m); those positions hold exact 0.0 throughout — the padded
    /// panel L is zero, so the dense solve reproduces the strict values
    /// bit-for-bit and zero lanes skip the update passes. The source
    /// geometry the update needs is denormalized into the record (one
    /// cache line) so the refactor streams a flat array instead of
    /// chasing six per-supernode arrays per run — the singleton-run walk
    /// was lookup-bound, not flop-bound.
    struct sn_run {
        std::size_t j;    ///< first pivot row of the span
        std::size_t m;    ///< span width (source columns consumed)
        std::size_t cnt;  ///< CSC U entries in the span (== m when gapless)
        std::size_t jrel; ///< j - first column of the source supernode
        std::size_t loff; ///< panels_ offset of the span's first L column
        std::size_t lds;  ///< source panel leading dimension
        std::size_t msub; ///< source sub-row count
        std::size_t rows; ///< offset of the source's sub-row list in sn.rows
        std::size_t wsub; ///< sub-rows above the target column (work-vector part)
    };
    std::vector<sn_run> sn_runs_;         ///< refactor: flat run partition
    std::vector<std::size_t> sn_run_ptr_; ///< column -> range in sn_runs_
    /// Per off-block run, the target-panel slots of its sub-rows at or
    /// below the target column (rows[wsub..msub)), laid out in run order:
    /// those deposits land in the target's dense panel column instead of
    /// the work vector, so the hottest scatter walks an L1-resident
    /// column with a precomputed, streamed index list.
    std::vector<std::uint32_t> sn_slots_;
    std::vector<std::uint32_t> sn_pos_; ///< refactor: pivot row -> target panel slot
    std::vector<T> sn_rdiag_;  ///< blocked solve: per-column 1/pivot
    bool snk_ok_ = snk::available(); ///< AVX2+FMA kernel TU usable
    std::size_t sn_max_sub_ = 0;
    std::vector<double> sn_plane_tr_; ///< blocked solve: sub-row lanes (re)
    std::vector<double> sn_plane_ti_; ///< blocked solve: sub-row lanes (im)
};

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_SPARSE_FACTOR_H
