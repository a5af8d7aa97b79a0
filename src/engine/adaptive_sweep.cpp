#include "engine/adaptive_sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>

#include "common/error.h"
#include "numeric/aaa.h"
#include "numeric/interpolation.h"

namespace acstab::engine {

namespace {

    /// Support-point cap of the rational model; a fit that pins this cap
    /// while staying far from tolerance marks a response the model class
    /// cannot represent (see the saturation bail-out below).
    constexpr std::size_t max_model_order = 48;

    /// Safety valve on fit/refine iterations.
    constexpr std::size_t max_rounds = 24;

    /// Barycentric cancellation ratio below which a model point may sit
    /// next to a model pole (barycentric_coeffs::denom_health).
    constexpr real health_floor = 1e-3;

    /// Index of the grid point nearest f on a log scale (ties go low).
    std::size_t nearest_index(const std::vector<real>& grid, real f)
    {
        const auto it = std::lower_bound(grid.begin(), grid.end(), f);
        if (it == grid.begin())
            return 0;
        const std::size_t hi = static_cast<std::size_t>(it - grid.begin());
        if (it == grid.end() || f / grid[hi - 1] <= *it / f)
            return hi - 1;
        return hi;
    }

} // namespace

void check_fit_tol(real fit_tol, std::string_view what)
{
    if (!(fit_tol > 0.0 && fit_tol <= max_fit_tol)) {
        std::ostringstream msg;
        msg << what << " must be in (0, " << max_fit_tol << "], got " << fit_tol;
        throw analysis_error(msg.str());
    }
}

adaptive_sweep::adaptive_sweep(adaptive_sweep_options opt) : opt_(std::move(opt)) {}

namespace {

    adaptive_sweep_result run_adaptive(const linearized_snapshot& snap,
                                       const adaptive_sweep_options& opt,
                                       const std::vector<adaptive_channel>& channels,
                                       const std::vector<std::vector<cplx>>& bvecs)
    {
        const std::size_t n = snap.size();
        const std::size_t nrhs = bvecs.size();
        const std::size_t nch = channels.size();
        if (nrhs == 0)
            throw analysis_error("adaptive sweep: need at least one right-hand side");
        if (channels.empty())
            throw analysis_error("adaptive sweep: need at least one channel");
        for (const adaptive_channel& ch : channels)
            if (ch.rhs >= nrhs || ch.unknown >= n)
                throw analysis_error("adaptive sweep: channel index out of range");
        check_fit_tol(opt.fit_tol, "adaptive sweep: fit_tol");
        if (opt.anchors_per_decade == 0 || opt.output_points_per_decade == 0)
            throw analysis_error("adaptive sweep: need at least 1 point per decade");

        // The output grid is the fixed grid the sweep replaces, and every
        // solved frequency is one of its points, so no run factors more
        // frequencies than the fixed grid would.
        const std::vector<real> grid
            = numeric::log_grid(opt.fstart, opt.fstop, opt.output_points_per_decade, 8);
        const std::size_t ng = grid.size();

        // Seeding the shared symbolic factorization at the band's midpoint
        // lets every refinement batch hit the snapshot's cached one.
        sweep_engine_options eopt = opt.engine;
        eopt.symbolic_omega_ref = to_omega(std::sqrt(opt.fstart * opt.fstop));
        const sweep_engine eng(eopt);

        adaptive_sweep_result res;
        res.freq_hz = grid;
        res.values.assign(nch, std::vector<cplx>(ng));
        // Solved grid points; their channel values sit in res.values.
        std::vector<bool> solved(ng, false);
        // The full solution of every right-hand side at each refinement
        // sample, column-major (rhs r occupies [r*n, (r+1)*n)), for the
        // residual check below. Points solved after refinement keep only
        // their channels.
        std::vector<std::vector<cplx>> sol(ng);
        std::vector<std::vector<std::size_t>> channels_of(nrhs);
        for (std::size_t c = 0; c < nch; ++c)
            channels_of[channels[c].rhs].push_back(c);

        // Factor and solve unsolved grid points (ascending) in one batched
        // engine pass.
        const auto solve = [&](const std::vector<std::size_t>& idx, bool keep_solutions) {
            if (idx.empty())
                return;
            std::vector<real> freqs(idx.size());
            for (std::size_t k = 0; k < idx.size(); ++k) {
                freqs[k] = grid[idx[k]];
                solved[idx[k]] = true;
                if (keep_solutions)
                    sol[idx[k]].resize(nrhs * n);
            }
            eng.run(snap, freqs, bvecs,
                    [&](std::size_t fi, std::size_t ri, std::span<const cplx> x) {
                        const std::size_t i = idx[fi];
                        for (const std::size_t c : channels_of[ri])
                            res.values[c][i] = x[channels[c].unknown];
                        if (keep_solutions)
                            std::copy(x.begin(), x.end(),
                                      sol[i].begin() + static_cast<std::ptrdiff_t>(ri * n));
                    });
            res.factorizations += idx.size();
        };

        // Anchors: the grid points nearest the coarse anchor grid, both
        // ends included.
        std::vector<std::size_t> anchors;
        for (const real f : numeric::log_grid(opt.fstart, opt.fstop, opt.anchors_per_decade, 8))
            anchors.push_back(nearest_index(grid, f));
        anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
        solve(anchors, true);

        // Fit the shared-support rational model to the observable channels
        // at every solved frequency. The fit runs tighter than fit_tol so
        // model error never dominates the residual-check budget. From the
        // second round on, the refit is warm-started from the previous
        // round's support set: those frequencies are solved samples that
        // persist across rounds, so re-deriving each one greedily (one
        // weight eigen-solve per support point) is pure overhead — the
        // dominant refit cost on small circuits. The warm refit pays one
        // eigen-solve for the seed batch plus one per NEW support point.
        const auto fit = [&](const numeric::aaa_model* prev) {
            std::vector<real> xs;
            std::vector<std::vector<cplx>> data(nch);
            for (std::size_t i = 0; i < ng; ++i) {
                if (!solved[i])
                    continue;
                xs.push_back(grid[i]);
                for (std::size_t c = 0; c < nch; ++c)
                    data[c].push_back(res.values[c][i]);
            }
            numeric::aaa_options aopt;
            aopt.rel_tol = std::max(opt.fit_tol * 0.25, real{1e-13});
            aopt.max_support = std::min(max_model_order, xs.size() - 1);
            if (prev != nullptr) {
                for (const real fx : prev->support()) {
                    // Support abscissae are bit-identical to grid points,
                    // so an exact binary search finds them.
                    const auto it = std::lower_bound(xs.begin(), xs.end(), fx);
                    if (it != xs.end() && *it == fx)
                        aopt.seed_support.push_back(
                            static_cast<std::size_t>(it - xs.begin()));
                }
            }
            return numeric::aaa_fit(xs, data, aopt);
        };

        // The stored solutions behind a model's support points, in support
        // order. They are looked up by frequency: support_samples() indexes
        // the samples as they were at fit time, and a confirming batch
        // adds samples after the fit.
        const auto support_solutions = [&](const numeric::aaa_model& model) {
            std::vector<const cplx*> cols;
            for (const real fx : model.support())
                cols.push_back(
                    sol[static_cast<std::size_t>(
                            std::lower_bound(grid.begin(), grid.end(), fx) - grid.begin())]
                        .data());
            return cols;
        };

        // Residual-check state: one workspace + scratch vectors reused
        // across every candidate (assemble + SpMV only; no factorization).
        numeric::csc_matrix<cplx> work = snap.make_workspace();
        std::vector<cplx> xhat(n), yres(n);
        std::vector<real> bnorm(nrhs, 0.0);
        for (std::size_t r = 0; r < nrhs; ++r)
            for (const cplx& v : bvecs[r])
                bnorm[r] = std::max(bnorm[r], std::abs(v));

        // Normwise backward error of the model's predicted solutions at
        // frequency f: the barycentric coefficients combine the STORED
        // full solution vectors (shared support/weights), and one matrix
        // assembly plus one SpMV per RHS measures ||Y x - b|| — no
        // factorization. The worst RHS decides, so one refined grid
        // serves the whole batch.
        const auto prediction_error = [&](real fcheck, const numeric::barycentric_coeffs& bc,
                                          const std::vector<const cplx*>& cols) {
            snap.assemble(to_omega(fcheck), work);
            real ymax = 0.0;
            for (const cplx& v : work.values())
                ymax = std::max(ymax, std::abs(v));
            real worst = 0.0;
            for (std::size_t r = 0; r < nrhs && worst <= opt.fit_tol; ++r) {
                std::fill(xhat.begin(), xhat.end(), cplx{});
                for (std::size_t j = 0; j < cols.size(); ++j) {
                    const cplx* col = cols[j] + r * n;
                    for (std::size_t k = 0; k < n; ++k)
                        xhat[k] += bc.coeff[j] * col[k];
                }
                work.multiply_into(xhat, yres);
                real rmax = 0.0;
                real xmax = 0.0;
                real finite_probe = 0.0; // NaN survives +, unlike std::max
                for (std::size_t k = 0; k < n; ++k) {
                    const real rk = std::abs(yres[k] - bvecs[r][k]);
                    const real xk = std::abs(xhat[k]);
                    rmax = std::max(rmax, rk);
                    xmax = std::max(xmax, xk);
                    finite_probe += rk + xk;
                }
                if (!std::isfinite(finite_probe))
                    return std::numeric_limits<real>::infinity();
                // A zero residual is exactly satisfied whatever the
                // scaling — in particular for an all-zero right-hand side
                // (zero AC stimulus), where the scaled form would be 0/0.
                if (rmax == 0.0)
                    continue;
                const real err = rmax / (ymax * xmax + bnorm[r]);
                // A NaN-poisoned prediction must FAIL the check, not slip
                // through std::max's NaN-dropping comparisons.
                if (!std::isfinite(err))
                    return std::numeric_limits<real>::infinity();
                worst = std::max(worst, err);
            }
            return worst;
        };

        numeric::aaa_model model;
        std::size_t saturated_rounds = 0;
        for (std::size_t round = 0;; ++round) {
            model = fit(round == 0 ? nullptr : &model);

            // A model that pins its support budget while staying far from
            // tolerance cannot represent the response (very high visible
            // order, e.g. distributed RC lines); refining would only burn
            // solves, so give up and solve the fixed grid below.
            if (model.support_count() >= max_model_order
                && model.fit_error() > 1e3 * opt.fit_tol) {
                if (++saturated_rounds >= 2) {
                    res.converged = false;
                    break;
                }
            } else {
                saturated_rounds = 0;
            }

            // Candidates: the middle grid point (the upper one of two)
            // between solved neighbours at least two points apart; adjacent
            // points are resolved. Each candidate the residual check rejects
            // is flagged, together with the model's prediction of every
            // channel there.
            const std::vector<const cplx*> cols = support_solutions(model);
            std::vector<std::size_t> flagged;
            std::vector<cplx> predicted; // [flagged][channel]
            std::size_t prev = 0;        // the first anchor
            for (std::size_t i = 1; i < ng; ++i) {
                if (!solved[i])
                    continue;
                if (i - prev >= 2) {
                    const std::size_t mid = (prev + i + 1) / 2;
                    const numeric::barycentric_coeffs bc = model.coeffs_at(grid[mid]);
                    if (prediction_error(grid[mid], bc, cols) > opt.fit_tol) {
                        flagged.push_back(mid);
                        for (std::size_t c = 0; c < nch; ++c)
                            predicted.push_back(model.eval_with(bc, c));
                    }
                }
                prev = i;
            }

            if (flagged.empty())
                break;
            if (round >= max_rounds) {
                res.converged = false;
                break;
            }
            solve(flagged, true);

            // A solved batch that lands where the model said, on every
            // reported channel, confirms the model: refinement ends and the
            // model fills the grid.
            bool confirmed = true;
            for (std::size_t k = 0; k < flagged.size() && confirmed; ++k)
                for (std::size_t c = 0; c < nch && confirmed; ++c) {
                    const cplx v = res.values[c][flagged[k]];
                    confirmed = std::isfinite(v.real()) && std::isfinite(v.imag())
                        && std::abs(v - predicted[k * nch + c]) <= opt.fit_tol * std::abs(v);
                }
            if (confirmed)
                break;
        }

        res.model_order = model.support_count();
        res.model_fit_error = model.fit_error();

        // Giving up returns the fixed grid: every point not yet solved is
        // solved now, and the values are exact everywhere.
        std::vector<std::size_t> unsolved;
        for (std::size_t i = 0; i < ng; ++i)
            if (!solved[i])
                unsolved.push_back(i);
        if (!res.converged) {
            solve(unsolved, false);
            unsolved.clear();
        }

        // A converged model fills the unsolved points. A model pole inside
        // an interval would spike there; the barycentric denominator's
        // cancellation ratio flags such points for cheap. They get the
        // residual check and are solved if they fail; they are grid
        // points, so the count stays within the grid.
        const std::vector<const cplx*> cols = support_solutions(model);
        std::vector<std::size_t> spikes;
        for (const std::size_t i : unsolved) {
            const numeric::barycentric_coeffs bc = model.coeffs_at(grid[i]);
            if (bc.denom_health < health_floor && prediction_error(grid[i], bc, cols) > opt.fit_tol)
                spikes.push_back(i);
            else
                for (std::size_t c = 0; c < nch; ++c)
                    res.values[c][i] = model.eval_with(bc, c);
        }
        solve(spikes, false);

        for (std::size_t i = 0; i < ng; ++i)
            if (solved[i])
                res.solved_freq_hz.push_back(grid[i]);
        return res;
    }

} // namespace

adaptive_sweep_result
adaptive_sweep::run_injections(const linearized_snapshot& snap,
                               const std::vector<sweep_engine::injection>& injections,
                               const std::vector<adaptive_channel>& channels) const
{
    for (const sweep_engine::injection& inj : injections)
        if (inj.index >= snap.size())
            throw analysis_error("adaptive sweep: injection index out of range");

    // The residual checks need the dense right-hand sides anyway, so the
    // engine can back-solve those directly.
    std::vector<std::vector<cplx>> bvecs(injections.size(),
                                         std::vector<cplx>(snap.size(), cplx{}));
    for (std::size_t r = 0; r < injections.size(); ++r)
        bvecs[r][injections[r].index] = injections[r].value;
    return run(snap, bvecs, channels);
}

adaptive_sweep_result adaptive_sweep::run(const linearized_snapshot& snap,
                                          const std::vector<std::vector<cplx>>& rhs_batch,
                                          const std::vector<adaptive_channel>& channels) const
{
    for (const std::vector<cplx>& rhs : rhs_batch)
        if (rhs.size() != snap.size())
            throw analysis_error("adaptive sweep: right-hand side has wrong length");

    return run_adaptive(snap, opt_, channels, rhs_batch);
}

} // namespace acstab::engine
