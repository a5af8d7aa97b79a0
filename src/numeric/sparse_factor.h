// The symbolic / numeric split of the left-looking sparse LU
// (Gilbert–Peierls with threshold partial pivoting).
//
//   * symbolic_lu — the immutable, shareable half: pivot order, column
//     preordering, the full symbolic L/U reach patterns, their supernode
//     partition and the blocked refactorization's pair plan, computed
//     once per matrix structure. Safe to share (read-only) across any
//     number of workers via shared_ptr; the sweep engine computes it once
//     per linearized snapshot instead of once per worker chunk.
//   * numeric_lu — the lightweight per-worker half: just the L/U values
//     plus O(n) scratch, refactored in place against the shared symbolic
//     object frequency to frequency. In supernodal mode the refactor runs
//     one target supernode at a time: per (source, target) supernode
//     pair, one dense triangular solve and one dense product
//     (numeric/sn_kernels.h) instead of one of each per target column.
//     Its solve_in_place / solve_batch back-solve whole RHS batches in
//     one L and one U traversal without a single heap allocation, which
//     is what makes the sweep hot loop allocation-free. Its factor() is
//     the one guarded refactorization: the sweep engine, the Newton
//     solver and the pole search reuse a pivot order only through it,
//     and it re-pivots when the order has gone stale.
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
    /// Split real/imag planes in an rhs-contiguous layout, walked over
    /// the dense supernodal panels, so the inner loop over the batch is
    /// unit-stride and vectorizes; results agree with scalar to rounding.
    /// Only distinct from scalar in supernodal mode, for
    /// std::complex<double> batches of two or more right-hand sides.
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
    /// The blocked refactorization's symbolic plan (supernode.h), built
    /// at analysis time next to the partition and shared read-only by
    /// every worker.
    [[nodiscard]] const supernode_plan& plan() const noexcept { return plan_; }

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
        plan_ = plan_supernodal_lu(sn_, lcol_ptr_, lrow_, ucol_ptr_, urow_);
    }

    std::size_t n_ = 0;
    column_ordering ordering_ = column_ordering::amd_approx;
    std::vector<std::size_t> lcol_ptr_, lrow_;
    std::vector<std::size_t> ucol_ptr_, urow_;
    std::vector<std::size_t> pinv_;
    std::vector<std::size_t> q_;
    supernode_partition sn_;
    supernode_plan plan_;
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
    /// In supernodal mode the pair-wise blocked elimination runs instead
    /// of the column-at-a-time loop; both fill the same CSC value arrays
    /// (the blocked path additionally fills its dense panels), so every
    /// solve path stays valid either way.
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

    /// Fused pair form of mul_sub_: y -= l0*u0 + l1*u1 in one pass over y.
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

    /// The pair's product, subtracted through its row map: for r < m and
    /// q < n, element map[r] of column base dst[q] (r < split) or
    /// dst[n + q] (r >= split) loses (a * b)(r, q). a is m x k with leading
    /// dimension lda (a source's sub-row panel), b[q] points at column q's
    /// k values. Complex values take the register-blocked kernel, which
    /// subtracts straight out of its registers, when the CPU has it; the
    /// portable product-then-scatter serves baseline builds and T = double.
    void product_sub_(T* const* dst, std::size_t split, const std::uint32_t* map, const T* a,
                      std::size_t lda, const T* const* b, std::size_t m, std::size_t n,
                      std::size_t k) noexcept
    {
        if (m == 0)
            return;
        if constexpr (split_cplx_) {
            if (snk_ok_) {
                snk::zgemm_scatter_sub(reinterpret_cast<double* const*>(dst), split, map,
                                       reinterpret_cast<const double*>(a), lda,
                                       reinterpret_cast<const double* const*>(b), m, n, k);
                return;
            }
        }
        T* __restrict c = sn_prod_.data();
        for (std::size_t q = 0; q < n; ++q) {
            const T* bq = b[q];
            for (std::size_t r = 0; r < m; ++r)
                c[r] = cmul_(a[r], bq[0]);
            for (std::size_t p = 1; p < k; ++p) {
                const T* ap = a + p * lda;
                const T u = bq[p];
                for (std::size_t r = 0; r < m; ++r)
                    c[r] += cmul_(ap[r], u);
            }
            for (std::size_t r = 0; r < split; ++r)
                dst[q][map[r]] -= c[r];
            for (std::size_t r = split; r < m; ++r)
                dst[n + q][map[r]] -= c[r];
        }
    }

    /// Blocked left-looking elimination, one target supernode T at a
    /// time over the shared plan (supernode_plan in supernode.h):
    ///
    ///  1. A's columns of T are scattered into T's cleared panel (rows at
    ///     or below T's first column) and into the cleared above block
    ///     (rows above it).
    ///  2. Each (source, target) pair, sources ascending, runs one dense
    ///     unit-lower triangular solve and one dense product for all of
    ///     its target columns at once (update_pair_), so a wide source
    ///     panel is read once per pair instead of once per target column.
    ///  3. T's own diagonal block is eliminated column by column with
    ///     dense rank-1/rank-2 streams over the panel, each pivot's
    ///     reciprocal scales its L column in place, and the CSC L values
    ///     are gathered out of the panel.
    ///
    /// Positions without a structural entry (the rows of a span before a
    /// column's first U entry, relaxed padding) hold exact zeros
    /// throughout, so every structural value is the column path's up to
    /// rounding. A matrix that is a single supernode runs step 3 only.
    void refactor_supernodal(const csc_matrix<T>& a)
    {
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        const supernode_partition& sn = sym_->supernodes();
        const supernode_plan& plan = sym_->plan();
        std::uint32_t* pos = sn_pos_.data();
        T* above = sn_above_.data();
        for (std::size_t t = 0; t < sn.count(); ++t) {
            const std::size_t ft = sn.first[t];
            const std::size_t wt = sn.width(t);
            const std::size_t ldt = plan.panel_ld[t];
            T* pant = panels_.data() + plan.panel_off[t];
            const std::size_t lda = plan.above_rows[t] + 1;
            const supernode_plan::pair* pairs = plan.pairs.data() + plan.pair_ptr[t];
            const std::size_t npairs = plan.pair_ptr[t + 1] - plan.pair_ptr[t];

            // Pivot row -> slot of this target: the pairs' spans index
            // the above block, T's own rows its panel. Only the span rows
            // of a pair's columns are ever read from the above block, so
            // only those are cleared.
            for (std::size_t q = 0; q < npairs; ++q) {
                const supernode_plan::pair& pr = pairs[q];
                const std::size_t m = sn.first[pr.source + 1] - pr.span;
                for (std::size_t i = 0; i < m; ++i)
                    pos[pr.span + i] = static_cast<std::uint32_t>(pr.above + i);
                for (std::size_t v = pr.cols; v < pr.cols + pr.ncols; ++v)
                    std::fill_n(above + plan.cols[v] * lda + pr.above, m, T{});
            }
            for (std::size_t i = 0; i < wt; ++i)
                pos[ft + i] = static_cast<std::uint32_t>(i);
            const std::size_t* rt = sn.rows.data() + sn.row_ptr[t];
            for (std::size_t z = 0; z < ldt - wt; ++z)
                pos[rt[z]] = static_cast<std::uint32_t>(wt + z);

            std::fill(pant, pant + ldt * wt, T{});
            for (std::size_t c = 0; c < wt; ++c) {
                const std::size_t col = qperm[ft + c];
                T* tc = pant + c * ldt;
                for (std::size_t p = a.col_ptr()[col]; p < a.col_ptr()[col + 1]; ++p) {
                    const std::size_t r = pinv[a.row_idx()[p]];
                    if (r < ft)
                        above[c * lda + pos[r]] += a.values()[p];
                    else
                        tc[pos[r]] += a.values()[p];
                }
            }

            for (std::size_t q = 0; q < npairs; ++q)
                update_pair_(pairs[q], plan, sn, urow, above, lda, pant, ldt);

            for (std::size_t c = 0; c < wt; ++c) {
                const std::size_t k = ft + c;
                // In-block span: the column's U rows inside T, from its
                // first in-block entry up to the column itself, solved
                // against T's own finished columns.
                T* pancol_t = pant + c * ldt;
                const std::size_t ulast = ucol_ptr[k + 1] - 1;
                const std::size_t p0 = plan.u_split[k];
                if (p0 < ulast) {
                    const std::size_t jrel = urow[p0] - ft;
                    const std::size_t m = c - jrel;
                    const T* lrun = pant + jrel * ldt; // span's first L column
                    if (m == 1) {
                        // Singleton span: no triangular solve, and the
                        // diagonal tail and sub-rows are one contiguous
                        // range in both panel columns.
                        const T u0 = pancol_t[jrel];
                        uval_[p0] = u0;
                        if (u0 != T{})
                            mul_sub_(pancol_t + c, lrun + c, u0, ldt - c);
                    } else {
                        // Dense unit-lower solve in place; contributing
                        // (nonzero) columns are collected as their values
                        // become final, so the update skips exact zeros.
                        T* u = pancol_t + jrel;
                        std::size_t* idx = sn_idx_.data();
                        std::size_t nc = 0;
                        for (std::size_t i = 0; i < m; ++i) {
                            const T ui = u[i];
                            if (ui == T{})
                                continue;
                            idx[nc++] = i;
                            mul_sub_(u + i + 1, lrun + i * ldt + (jrel + i + 1), ui, m - i - 1);
                        }
                        // CSC stores only the structural subset of the span.
                        const std::size_t cnt = ulast - p0;
                        if (cnt == m) {
                            for (std::size_t i = 0; i < m; ++i)
                                uval_[p0 + i] = u[i];
                        } else {
                            for (std::size_t e = 0; e < cnt; ++e)
                                uval_[p0 + e] = pancol_t[urow[p0 + e] - ft];
                        }
                        // The diagonal tail and the sub-rows: dense rank-2
                        // streams down the panel column.
                        const std::size_t len = ldt - c;
                        T* dst = pancol_t + c;
                        const T* lc = lrun + c;
                        std::size_t ii = 0;
                        if (nc & 1) {
                            mul_sub_(dst, lc + idx[0] * ldt, u[idx[0]], len);
                            ii = 1;
                        }
                        for (; ii + 1 < nc; ii += 2)
                            mul_sub2_(dst, lc + idx[ii] * ldt, u[idx[ii]], lc + idx[ii + 1] * ldt,
                                      u[idx[ii + 1]], len);
                    }
                }

                const T pivot = pancol_t[c];
                if (pivot == T{})
                    throw numeric_error("numeric_lu: refactor hit a zero pivot at column "
                                        + std::to_string(qperm[k]));
                uval_[ulast] = pivot;
                const T rpivot = T{1.0} / pivot;
                sn_rdiag_[k] = rpivot;
                // Dense in-place scale of the panel's L region (padded
                // positions hold exact zeros and stay zero), then gather
                // the CSC L values from their panel slots.
                for (std::size_t r = c + 1; r < ldt; ++r)
                    pancol_t[r] = cmul_(pancol_t[r], rpivot);
                for (std::size_t q = lcol_ptr[k]; q < lcol_ptr[k + 1]; ++q)
                    lval_[q] = pancol_t[plan.lpanel_pos[q]];
            }
        }
    }

    /// x[q] <- l^-1 x[q] for the pair's n columns of m values each; l is
    /// the m x m unit-lower diagonal sub-block of a source panel (leading
    /// dimension ldl). The portable loop (baseline builds, T = double, and
    /// spans too short for the kernel call to pay) is the column path's
    /// axpy order.
    void trsm_(T* const* x, const T* l, std::size_t ldl, std::size_t m, std::size_t n) const noexcept
    {
        if constexpr (split_cplx_) {
            if (snk_ok_ && m >= 4) {
                snk::ztrsm(reinterpret_cast<double* const*>(x), reinterpret_cast<const double*>(l),
                           ldl, m, n);
                return;
            }
        }
        for (std::size_t q = 0; q < n; ++q) {
            T* xq = x[q];
            for (std::size_t i = 0; i < m; ++i)
                if (xq[i] != T{})
                    mul_sub_(xq + i + 1, l + i * ldl + i + 1, xq[i], m - i - 1);
        }
    }

    /// Step 2 of refactor_supernodal for one pair (S, T). The span's rows
    /// of the above block hold, per target column, A's values minus the
    /// earlier sources' updates; the unit-lower solve with S's diagonal
    /// block turns them into U(span, T) in place, and their structural
    /// entries go to CSC. A column that is all zero there solves to zeros
    /// and drops out. The product L_sub(S) * U(span, T) of the remaining
    /// columns is then subtracted into the above block and T's panel
    /// through the pair's row map in one pass.
    void update_pair_(const supernode_plan::pair& pr, const supernode_plan& plan,
                      const supernode_partition& sn, const std::vector<std::size_t>& urow,
                      T* above, std::size_t lda, T* pant, std::size_t ldt)
    {
        const std::size_t s = pr.source;
        const std::size_t end = sn.first[s + 1];
        const std::size_t lds = plan.panel_ld[s];
        const std::size_t jrel = pr.span - sn.first[s];
        const std::size_t m = end - pr.span;
        const T* ls = panels_.data() + plan.panel_off[s] + jrel * lds; // span's first column
        const std::uint32_t* cols = plan.cols.data() + pr.cols;
        const std::size_t* ucsc = plan.ucsc.data() + pr.cols;
        const T* lsub = ls + sn.width(s);
        const std::uint32_t* map = plan.rowmap.data() + pr.map;
        if (m == 1) {
            // A one-row span (half of all pairs on meshes): U(span, T) is
            // that row itself, one CSC entry per column, and the product
            // is a rank-1 update per column.
            for (std::size_t q = 0; q < pr.ncols; ++q) {
                const T u = above[cols[q] * lda + pr.above];
                uval_[ucsc[q]] = u;
                if (u == T{})
                    continue;
                T* ac = above + cols[q] * lda;
                for (std::size_t r = 0; r < pr.nabove; ++r)
                    ac[map[r]] -= cmul_(lsub[r], u);
                T* tc = pant + cols[q] * ldt;
                for (std::size_t r = pr.nabove; r < pr.nrows; ++r)
                    tc[map[r]] -= cmul_(lsub[r], u);
            }
            return;
        }
        T** ucol = sn_ucol_.data();
        T** dst = sn_dst_.data();
        std::size_t nc = 0;
        for (std::size_t q = 0; q < pr.ncols; ++q) {
            T* x = above + cols[q] * lda + pr.above;
            if (std::all_of(x, x + m, [](const T& v) { return v == T{}; })) {
                for (std::size_t p = ucsc[q]; urow[p] < end; ++p)
                    uval_[p] = T{};
                continue;
            }
            ucol[nc] = x;
            dst[nc] = above + cols[q] * lda;
            sn_live_[nc++] = static_cast<std::uint32_t>(q);
        }
        if (nc == 0)
            return;
        trsm_(ucol, ls + jrel, lds, m, nc);
        for (std::size_t v = 0; v < nc; ++v) {
            const std::size_t q = sn_live_[v];
            for (std::size_t p = ucsc[q]; urow[p] < end; ++p)
                uval_[p] = ucol[v][urow[p] - pr.span];
            dst[nc + v] = pant + cols[q] * ldt;
        }
        product_sub_(dst, pr.nabove, map, lsub, lds, ucol, pr.nrows, nc, m);
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
    /// kernel runs in supernodal mode only (column mode solves with the
    /// scalar kernel either way); it grows its split-plane scratch lazily
    /// to the largest batch seen, so after the first batch of a given
    /// width the solve loop is allocation-free again.
    void set_batch_kernel(batch_kernel k) noexcept { kernel_ = k; }
    [[nodiscard]] batch_kernel kernel() const noexcept { return kernel_; }

    /// Enable the supernodal/blocked numeric path: refactor() runs the
    /// pair-wise blocked elimination over the symbolic supernode plan and
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
    /// Allocate the panels and the refactor scratch. The index
    /// bookkeeping lives in the symbolic object's shared plan, so this
    /// only sizes buffers from it.
    void init_supernodal()
    {
        const std::size_t n = sym_->size();
        const supernode_plan& plan = sym_->plan();
        panels_.assign(plan.panel_off.back(), T{});
        sn_above_.assign(plan.max_above, T{});
        sn_prod_.assign(plan.max_sub, T{});
        sn_ucol_.assign(plan.max_width, nullptr);
        sn_dst_.assign(2 * plan.max_width, nullptr);
        sn_live_.assign(plan.max_width, 0);
        sn_idx_.assign(plan.max_width, 0);
        sn_pos_.assign(n, 0);
        sn_rdiag_.assign(n, T{});
    }

    /// Fill the dense panels from the CSC values (pure data movement);
    /// structural zeros inside the dense blocks were never written and
    /// stay zero from the panel allocation.
    void load_panels_from_values()
    {
        const std::size_t n = sym_->size();
        const supernode_partition& sn = sym_->supernodes();
        const supernode_plan& plan = sym_->plan();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t t = sn.col_super[k];
            const std::size_t ft = sn.first[t];
            T* pancol = panels_.data() + plan.panel_off[t] + (k - ft) * plan.panel_ld[t];
            const std::size_t ulast = ucol_ptr[k + 1] - 1;
            for (std::size_t p = plan.u_split[k]; p < ulast; ++p)
                pancol[urow[p] - ft] = uval_[p];
            pancol[k - ft] = uval_[ulast];
            // Reciprocal pivot for the blocked back solve; a zero pivot
            // (factors never computed) poisons it exactly as division
            // would have.
            sn_rdiag_[k] = T{1.0} / uval_[ulast];
            for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p)
                pancol[plan.lpanel_pos[p]] = lval_[p];
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
        if (nrhs == 1) {
            solve_one_(b[0], x);
            return;
        }
        if constexpr (std::is_same_v<T, std::complex<double>>) {
            if (kernel_ == batch_kernel::simd && snmode_ && nrhs >= 2) {
                solve_batch_blocked(b, nrhs, x);
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
        // Undo the column ordering through the instance scratch.
        for (std::size_t r = 0; r < nrhs; ++r) {
            T* xc = x + r * n;
            for (std::size_t c = 0; c < n; ++c)
                scratch_[qperm[c]] = xc[c];
            std::copy(scratch_.begin(), scratch_.end(), xc);
        }
    }

    /// Blocked split-complex batch kernel (supernodal mode, std::complex
    /// <double> only): the batch lives in two split real/imag double
    /// planes laid out rhs-contiguously (lane r of pivot row i at
    /// [i * nrhs + r]), so the inner loops over the batch are unit-stride
    /// and a pivot row whose lanes are all zero skips its update (the
    /// injection right-hand sides of the stability sweeps are mostly
    /// zeros). The L forward pass walks dense panels per supernode — a dense
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
        const supernode_plan& plan = sym_->plan();
        const std::size_t ns = sn.count();

        if (plane_re_.size() < n * nrhs) {
            plane_re_.resize(n * nrhs);
            plane_im_.resize(n * nrhs);
        }
        if (sn_plane_tr_.size() < plan.max_sub * nrhs) {
            sn_plane_tr_.resize(plan.max_sub * nrhs);
            sn_plane_ti_.resize(plan.max_sub * nrhs);
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
            const std::size_t ld = plan.panel_ld[s];
            const T* pan = panels_.data() + plan.panel_off[s];
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
            const std::size_t ld = plan.panel_ld[s];
            const T* pan = panels_.data() + plan.panel_off[s];
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
                for (std::size_t p = ucol_ptr[c]; p < plan.u_split[c]; ++p) {
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
    void solve_in_place(T* x) { solve_one_(x, x); }

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
        std::vector<T> y(n);
        for (std::size_t i = 0; i < n; ++i)
            y[pinv[i]] = b[i];
        substitute_(y.data());
        std::vector<T> x(n);
        for (std::size_t c = 0; c < n; ++c)
            x[qperm[c]] = y[c];
        return x;
    }

private:
    /// One right-hand side, the scalar kernel's arithmetic: b scatters
    /// into pivot order in the instance scratch, the substitutions run
    /// there, and the solution gathers straight into x (which may alias
    /// b), so no staging copy and no second permutation pass are needed.
    void solve_one_(const T* b, T* x)
    {
        const std::size_t n = sym_->size();
        const auto& pinv = sym_->pinv();
        const auto& qperm = sym_->q();
        T* y = scratch_.data();
        for (std::size_t i = 0; i < n; ++i)
            y[pinv[i]] = b[i];
        substitute_(y);
        for (std::size_t c = 0; c < n; ++c)
            x[qperm[c]] = y[c];
    }

    /// Forward solve with unit-diagonal L, then back solve with U, on one
    /// right-hand side in pivot order, in place.
    void substitute_(T* y) const noexcept
    {
        const std::size_t n = sym_->size();
        const auto& lcol_ptr = sym_->lcol_ptr();
        const auto& lrow = sym_->lrow();
        const auto& ucol_ptr = sym_->ucol_ptr();
        const auto& urow = sym_->urow();
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
    }

private:
    /// Largest |re| + |im| of v, NaNs ignored. The maximum does not depend
    /// on the order it is taken in, so the vector kernel returns the same
    /// value as the loop.
    [[nodiscard]] double max_l1(const std::vector<T>& v) const noexcept
    {
        if constexpr (split_cplx_)
            if (snk_ok_)
                return snk::max_l1(reinterpret_cast<const double*>(v.data()), v.size());
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
    std::vector<T> work_;    ///< column refactor accumulator (pivot space)
    std::vector<T> scratch_; ///< single-RHS solve in pivot order; batched un-permute
    std::vector<T> probe_x_; ///< factor(): probe solution
    std::vector<T> probe_r_; ///< factor(): probe SpMV
    batch_kernel kernel_ = batch_kernel::scalar;
    std::vector<double> plane_re_; ///< blocked solve: real lanes, grown lazily
    std::vector<double> plane_im_; ///< blocked solve: imaginary lanes
    double growth_ = 0.0;
    // Supernodal mode (set_supernodal). Panels are column-major dense
    // blocks, one per supernode, laid out by the symbolic plan: rows
    // 0..w-1 hold the diagonal block (U upper triangle including the
    // diagonal, L strictly lower, unit diagonal implicit), rows
    // w..w+msub-1 the rectangular L sub-rows in the partition's shared
    // sorted order.
    bool snmode_ = false;
    std::vector<T> panels_;
    std::vector<T> sn_above_;  ///< refactor: the current target's above block
    std::vector<T> sn_prod_;   ///< refactor: one product column (portable path)
    std::vector<T*> sn_ucol_;  ///< refactor: a pair's nonzero U(span, T) columns
    std::vector<T*> sn_dst_;   ///< refactor: their above-block, then panel, column bases
    std::vector<std::uint32_t> sn_live_; ///< refactor: their indices in the pair's columns
    std::vector<std::size_t> sn_idx_;    ///< refactor: contributing columns of an in-block span
    std::vector<std::uint32_t> sn_pos_;  ///< refactor: pivot row -> slot of the current target
    std::vector<T> sn_rdiag_;  ///< blocked solve: per-column 1/pivot
    bool snk_ok_ = snk::available(); ///< AVX2+FMA kernel TU usable
    std::vector<double> sn_plane_tr_; ///< blocked solve: sub-row lanes (re)
    std::vector<double> sn_plane_ti_; ///< blocked solve: sub-row lanes (im)
};

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_SPARSE_FACTOR_H
