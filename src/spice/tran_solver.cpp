#include "spice/tran_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace acstab::spice {

tran_solver::tran_solver(std::size_t n, const tran_solver_options& opt)
    : n_(n), opt_(opt), builder_(n), resid_(n, 0.0)
{
}

system_builder<real>& tran_solver::begin_stamp()
{
    builder_.matrix().clear_values_keep_capacity();
    std::fill(builder_.rhs().begin(), builder_.rhs().end(), 0.0);
    return builder_;
}

bool tran_solver::pattern_matches() const noexcept
{
    const auto& entries = builder_.matrix().entries();
    if (entries.size() != entry_row_.size())
        return false;
    for (std::size_t k = 0; k < entries.size(); ++k)
        if (entries[k].row != entry_row_[k] || entries[k].col != entry_col_[k])
            return false;
    return true;
}

void tran_solver::rebuild_pattern()
{
    const auto& entries = builder_.matrix().entries();
    const std::size_t m = entries.size();

    entry_row_.resize(m);
    entry_col_.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
        entry_row_[k] = entries[k].row;
        entry_col_[k] = entries[k].col;
    }

    // Sort entry indices by (col, row) — the csc_matrix triplet
    // constructor's order — keeping the stamp order within duplicate
    // coordinates so the slot assignment below is deterministic.
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return entry_col_[a] != entry_col_[b] ? entry_col_[a] < entry_col_[b]
                                              : entry_row_[a] < entry_row_[b];
    });

    std::vector<std::size_t> col_ptr(n_ + 1, 0);
    std::vector<std::size_t> row_idx;
    slot_.assign(m, 0);
    std::size_t slots = 0;
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t e = order[k];
        if (k == 0 || entry_col_[e] != entry_col_[order[k - 1]]
            || entry_row_[e] != entry_row_[order[k - 1]]) {
            row_idx.push_back(entry_row_[e]);
            ++col_ptr[entry_col_[e] + 1];
            ++slots;
        }
        slot_[e] = slots - 1;
    }
    for (std::size_t c = 0; c < n_; ++c)
        col_ptr[c + 1] += col_ptr[c];

    // Not valid until the symbolic analysis below succeeds: a singular
    // first assembly must not leave a half-built pattern behind.
    has_pattern_ = false;
    csc_ = numeric::csc_matrix<real>(n_, n_, std::move(col_ptr), std::move(row_idx),
                                     std::vector<real>(slots, 0.0));
    deposit();
    rebuild_symbolic();
    has_pattern_ = true;
}

void tran_solver::rebuild_symbolic()
{
    numeric::lu_options lu;
    lu.pivot_tol = opt_.pivot_tol;
    sym_ = std::make_shared<const numeric::symbolic_lu<real>>(csc_, lu);
    num_ = std::make_unique<numeric::numeric_lu<real>>(sym_);
    num_->set_supernodal(true);
    num_->refactor(csc_);
    ++stats_.symbolic_builds;
}

void tran_solver::deposit()
{
    const auto& entries = builder_.matrix().entries();
    auto& values = csc_.values_mut();
    std::fill(values.begin(), values.end(), 0.0);
    for (std::size_t k = 0; k < entries.size(); ++k)
        values[slot_[k]] += entries[k].value;
}

real tran_solver::residual_rel(const std::vector<real>& x)
{
    csc_.multiply_into(x.data(), resid_.data());
    const auto& rhs = builder_.rhs();
    real num = 0.0;
    real den = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
        num = std::max(num, std::fabs(resid_[i] - rhs[i]));
        den = std::max(den, std::fabs(rhs[i]));
    }
    if (den == 0.0)
        den = 1.0;
    return num / den;
}

std::vector<real> tran_solver::solve()
{
    ++stats_.solves;

    if (!has_pattern_) {
        rebuild_pattern();
    } else if (!pattern_matches()) {
        ++stats_.pattern_rebuilds;
        rebuild_pattern();
    } else {
        deposit();
        try {
            num_->refactor(csc_);
        } catch (const numeric_error&) {
            // Zero pivot under the reused order: re-pivot once before
            // declaring the step singular.
            ++stats_.guard_rebuilds;
            rebuild_symbolic();
        }
    }

    std::vector<real> x = builder_.rhs();
    num_->solve_in_place(x.data());

    if (num_->growth() > opt_.growth_limit) {
        ++stats_.guard_probes;
        if (residual_rel(x) > opt_.residual_tol) {
            ++stats_.guard_rebuilds;
            rebuild_symbolic();
            x = builder_.rhs();
            num_->solve_in_place(x.data());
        }
    }
    return x;
}

} // namespace acstab::spice
