#include "spice/newton_solver.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"

namespace acstab::spice {

newton_solver::newton_solver(std::size_t n) : n_(n), builder_(n) {}

system_builder<real>& newton_solver::begin_stamp()
{
    builder_.matrix().clear_values_keep_capacity();
    std::fill(builder_.rhs().begin(), builder_.rhs().end(), 0.0);
    builder_.clear_limited();
    return builder_;
}

bool newton_solver::deposit()
{
    const auto& entries = builder_.matrix().entries();
    if (entries.size() != recorded_.size())
        return false;
    auto& values = csc_.values_mut();
    std::fill(values.begin(), values.end(), 0.0);
    for (std::size_t k = 0; k < entries.size(); ++k) {
        const recorded_stamp& r = recorded_[k];
        if (entries[k].row != r.row || entries[k].col != r.col)
            return false;
        values[r.slot] += entries[k].value;
    }
    return true;
}

void newton_solver::rebuild_pattern()
{
    const auto& entries = builder_.matrix().entries();
    const std::size_t m = entries.size();

    recorded_.resize(m);
    for (std::size_t k = 0; k < m; ++k)
        recorded_[k] = {entries[k].row, entries[k].col, 0};

    // Sort entry indices by (col, row) — the csc_matrix triplet
    // constructor's order — keeping the stamp order within duplicate
    // coordinates so the slot assignment below is deterministic.
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return recorded_[a].col != recorded_[b].col ? recorded_[a].col < recorded_[b].col
                                                    : recorded_[a].row < recorded_[b].row;
    });

    std::vector<std::size_t> col_ptr(n_ + 1, 0);
    std::vector<std::size_t> row_idx;
    std::size_t slots = 0;
    for (std::size_t k = 0; k < m; ++k) {
        recorded_stamp& e = recorded_[order[k]];
        if (k == 0 || e.col != recorded_[order[k - 1]].col
            || e.row != recorded_[order[k - 1]].row) {
            row_idx.push_back(e.row);
            ++col_ptr[e.col + 1];
            ++slots;
        }
        e.slot = slots - 1;
    }
    for (std::size_t c = 0; c < n_; ++c)
        col_ptr[c + 1] += col_ptr[c];

    // Not valid until the symbolic analysis below succeeds: a singular
    // first assembly must not leave a half-built pattern behind.
    has_pattern_ = false;
    csc_ = numeric::csc_matrix<real>(n_, n_, std::move(col_ptr), std::move(row_idx),
                                     std::vector<real>(slots, 0.0));
    (void)deposit();
    num_ = std::make_unique<numeric::numeric_lu<real>>(
        std::make_shared<const numeric::symbolic_lu<real>>(csc_));
    num_->set_supernodal(true);
    num_->refactor(csc_);
    ++stats_.symbolic_builds;
    has_pattern_ = true;
}

void newton_solver::solve(std::vector<real>& x)
{
    ++stats_.solves;

    if (!has_pattern_) {
        rebuild_pattern();
    } else if (!deposit()) {
        ++stats_.pattern_rebuilds;
        rebuild_pattern();
    } else {
        const auto guard = num_->factor(csc_);
        if (guard.probed)
            ++stats_.guard_probes;
        if (guard.repivoted) {
            ++stats_.guard_rebuilds;
            ++stats_.symbolic_builds;
        }
    }

    const real* b = builder_.rhs().data();
    x.resize(n_);
    num_->solve_batch(&b, 1, x.data());
}

namespace {

    /// An update is at roundoff when no unknown moves by more than this
    /// fraction of the solution's largest magnitude (floored at 1 mV, so
    /// an all-zero solution still has a scale). A linear circuit's second
    /// iteration repeats its first solve exactly and moves by 0.
    constexpr real roundoff_rel = 1e-14;
    constexpr real roundoff_floor = 1e-3;

    struct update_size {
        bool within_tol = true; ///< every unknown passed the tolerance test
        bool at_roundoff = false;
        real worst = 0.0;       ///< largest unknown update
    };

    [[nodiscard]] update_size measure_update(const std::vector<real>& x,
                                             const std::vector<real>& x_new, std::size_t nodes,
                                             const newton_rules& rules)
    {
        update_size u;
        real scale = roundoff_floor;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const real delta = std::fabs(x_new[i] - x[i]);
            const real floor_tol = i < nodes ? rules.vntol : rules.abstol;
            const real tol = rules.reltol * std::max(std::fabs(x_new[i]), std::fabs(x[i]))
                + floor_tol;
            if (delta > tol)
                u.within_tol = false;
            u.worst = std::max(u.worst, delta);
            scale = std::max(scale, std::fabs(x_new[i]));
        }
        u.at_roundoff = u.worst <= roundoff_rel * scale;
        return u;
    }

} // namespace

newton_outcome newton_iterate(std::vector<real>& x, std::size_t nodes, const newton_rules& rules,
                              stamp_pass stamp, newton_solver* shared, solver_kind oneshot)
{
    newton_outcome out;
    bool passed = false; // the tolerance test passed; later steps polish
    int polish_steps = 0;
    std::vector<real> oneshot_x;
    std::vector<real>& x_new = shared ? shared->candidate() : oneshot_x;
    for (int it = 0; it < rules.max_iterations; ++it) {
        out.iterations = it + 1;
        bool limited = false;
        try {
            if (shared) {
                system_builder<real>& b = shared->begin_stamp();
                stamp(x, b);
                limited = b.limited() > 0;
                shared->solve(x_new);
            } else {
                system_builder<real> b(x.size());
                stamp(x, b);
                limited = b.limited() > 0;
                x_new = solve_system(b, oneshot);
            }
        } catch (const numeric_error&) {
            out.singular = true;
            return out;
        }

        // A non-finite value never converges, and Newton cannot recover
        // from it: give up on this continuation point or step size.
        if (!std::all_of(x_new.begin(), x_new.end(), [](real v) { return std::isfinite(v); })) {
            out.non_finite = true;
            return out;
        }

        const update_size u = measure_update(x, x_new, nodes, rules);
        out.worst_delta = u.worst;
        if (passed || (u.within_tol && !limited)) {
            x.swap(x_new);
            passed = true;
            if (u.at_roundoff || polish_steps == rules.max_polish) {
                out.converged = true;
                return out;
            }
            ++polish_steps;
            continue;
        }

        if (rules.max_step > 0.0)
            for (std::size_t i = 0; i < nodes; ++i)
                x_new[i] = std::clamp(x_new[i], x[i] - rules.max_step, x[i] + rules.max_step);
        x.swap(x_new);
    }
    out.converged = passed; // the budget ran out while polishing
    return out;
}

void stamp_gshunt(std::size_t nodes, real g, system_builder<real>& b)
{
    if (g > 0.0)
        for (std::size_t i = 0; i < nodes; ++i)
            b.add(static_cast<node_id>(i), static_cast<node_id>(i), g);
}

std::string format_value(real v)
{
    char buf[40];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, ptr) : std::string("?");
}

std::string describe_outcome(const newton_outcome& out)
{
    if (out.singular)
        return "singular matrix after " + std::to_string(out.iterations) + " iteration(s)";
    if (out.non_finite)
        return "non-finite solution after " + std::to_string(out.iterations) + " iteration(s)";
    return "no convergence in " + std::to_string(out.iterations)
        + " iteration(s) (last max update " + format_value(out.worst_delta) + ")";
}

void log_rung(std::string& ladder, const std::string& clause)
{
    if (!ladder.empty())
        ladder += "; ";
    ladder += clause;
}

} // namespace acstab::spice
