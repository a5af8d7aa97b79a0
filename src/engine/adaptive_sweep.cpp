#include "engine/adaptive_sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.h"
#include "numeric/aaa.h"
#include "numeric/interpolation.h"

namespace acstab::engine {

namespace {

    /// One factored-and-solved frequency: the full solution of every
    /// right-hand side, column-major (rhs r occupies [r*n, (r+1)*n)).
    struct solved_sample {
        real f = 0.0;
        std::vector<cplx> x;
    };

    /// Relative tolerance under which two frequencies are the same point
    /// (the output grid merge and the solve dedupe both use it).
    constexpr real same_freq_rtol = 1e-9;

    /// Support-point cap of the rational model; a fit that pins this cap
    /// while staying far from tolerance marks a response the model class
    /// cannot represent (see the saturation bail-out below).
    constexpr std::size_t max_model_order = 48;

    /// Safety valve on fit/refine iterations.
    constexpr std::size_t max_rounds = 24;

    /// Refinement stops bisecting an interval once it is narrower than
    /// this fraction of an output-grid step.
    constexpr real min_gap_steps = 0.25;

    bool same_freq(real a, real b)
    {
        return std::fabs(a - b) <= same_freq_rtol * std::max(std::fabs(a), std::fabs(b));
    }

} // namespace

adaptive_sweep::adaptive_sweep(adaptive_sweep_options opt) : opt_(std::move(opt)) {}

namespace {

    struct flagged_candidate {
        real f = 0.0;
        real err = 0.0;
    };

    adaptive_sweep_result run_adaptive(const linearized_snapshot& snap,
                                       const adaptive_sweep_options& opt,
                                       const std::vector<adaptive_channel>& channels,
                                       const std::vector<std::vector<cplx>>& bvecs)
    {
        const std::size_t n = snap.size();
        const std::size_t nrhs = bvecs.size();
        if (nrhs == 0)
            throw analysis_error("adaptive sweep: need at least one right-hand side");
        if (channels.empty())
            throw analysis_error("adaptive sweep: need at least one channel");
        for (const adaptive_channel& ch : channels)
            if (ch.rhs >= nrhs || ch.unknown >= n)
                throw analysis_error("adaptive sweep: channel index out of range");
        if (!(opt.fit_tol > 0.0))
            throw analysis_error("adaptive sweep: fit_tol must be positive");
        if (opt.anchors_per_decade == 0 || opt.output_points_per_decade == 0)
            throw analysis_error("adaptive sweep: need at least 1 point per decade");

        const std::vector<real> dense
            = numeric::log_grid(opt.fstart, opt.fstop, opt.output_points_per_decade, 8);
        // Adaptive never factors more frequencies than the grid it replaces.
        const std::size_t budget = dense.size();
        const real min_gap = min_gap_steps / static_cast<real>(opt.output_points_per_decade);

        // Seeding the shared symbolic factorization at the band's midpoint
        // lets every refinement batch hit the snapshot's cached one.
        sweep_engine_options eopt = opt.engine;
        eopt.symbolic_omega_ref = to_omega(std::sqrt(opt.fstart * opt.fstop));
        const sweep_engine eng(eopt);

        adaptive_sweep_result res;
        std::vector<solved_sample> samples;

        const auto solve = [&](std::vector<real> freqs) {
            std::sort(freqs.begin(), freqs.end());
            std::vector<real> fresh_f;
            for (const real f : freqs) {
                bool known = !fresh_f.empty() && same_freq(fresh_f.back(), f);
                for (const solved_sample& s : samples)
                    known = known || same_freq(s.f, f);
                if (!known)
                    fresh_f.push_back(f);
            }
            if (fresh_f.empty())
                return;
            std::vector<solved_sample> fresh(fresh_f.size());
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                fresh[i].f = fresh_f[i];
                fresh[i].x.resize(nrhs * n);
            }
            eng.run(snap, fresh_f, bvecs,
                    [&fresh, n](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                        std::copy(sol.begin(), sol.end(),
                                  fresh[fi].x.begin() + static_cast<std::ptrdiff_t>(ri * n));
                    });
            res.factorizations += fresh.size();
            for (solved_sample& s : fresh)
                samples.push_back(std::move(s));
            std::sort(samples.begin(), samples.end(),
                      [](const solved_sample& a, const solved_sample& b) { return a.f < b.f; });
        };

        solve(numeric::log_grid(opt.fstart, opt.fstop, opt.anchors_per_decade, 8));

        // Fit the shared-support rational model to the observable channels
        // at every solved frequency. The fit runs tighter than fit_tol so
        // model error never dominates the residual-check budget. From the
        // second round on, the refit is warm-started from the previous
        // round's support set: those frequencies are solved samples that
        // persist across rounds, so re-deriving each one greedily (one
        // weight eigen-solve per support point) is pure overhead — the
        // dominant refit cost on small circuits. The warm refit pays one
        // eigen-solve for the seed batch plus one per NEW support point,
        // and the backward-error validation below is unchanged, so the
        // accuracy contract is unaffected.
        const auto fit = [&](const numeric::aaa_model* prev) {
            std::vector<real> xs(samples.size());
            std::vector<std::vector<cplx>> data(channels.size(),
                                                std::vector<cplx>(samples.size()));
            for (std::size_t i = 0; i < samples.size(); ++i) {
                xs[i] = samples[i].f;
                for (std::size_t c = 0; c < channels.size(); ++c)
                    data[c][i] = samples[i].x[channels[c].rhs * n + channels[c].unknown];
            }
            numeric::aaa_options aopt;
            aopt.rel_tol = std::max(opt.fit_tol * 0.25, real{1e-13});
            aopt.max_support = std::min(max_model_order, samples.size() - 1);
            if (prev != nullptr) {
                for (const real fx : prev->support()) {
                    // Support abscissae are bit-identical to sample
                    // frequencies, so an exact binary search finds them.
                    const auto it = std::lower_bound(xs.begin(), xs.end(), fx);
                    if (it != xs.end() && *it == fx)
                        aopt.seed_support.push_back(
                            static_cast<std::size_t>(it - xs.begin()));
                }
            }
            return numeric::aaa_fit(xs, data, aopt);
        };

        // Refinement state: one workspace + scratch vectors reused across
        // every candidate check (assemble + SpMV only; no factorization).
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
        const auto prediction_error = [&](real fcheck, const numeric::aaa_model& model,
                                          const numeric::barycentric_coeffs& bc) {
            snap.assemble(to_omega(fcheck), work);
            real ymax = 0.0;
            for (const cplx& v : work.values())
                ymax = std::max(ymax, std::abs(v));
            real worst = 0.0;
            const std::vector<std::size_t>& sidx = model.support_samples();
            for (std::size_t r = 0; r < nrhs && worst <= opt.fit_tol; ++r) {
                std::fill(xhat.begin(), xhat.end(), cplx{});
                for (std::size_t j = 0; j < sidx.size(); ++j) {
                    const cplx* col = samples[sidx[j]].x.data() + r * n;
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
            // order, e.g. distributed RC lines); blind bisection would
            // just burn the budget, so hand over to the output validation
            // pass below, which solves exactly the points that need it.
            if (model.support_count() >= max_model_order
                && model.fit_error() > 1e3 * opt.fit_tol) {
                if (++saturated_rounds >= 2) {
                    res.converged = false;
                    break;
                }
            } else {
                saturated_rounds = 0;
            }

            std::vector<flagged_candidate> flagged;
            for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
                const real gap = std::log10(samples[i + 1].f / samples[i].f);
                if (gap < 2.0 * min_gap)
                    continue; // resolved to below the output grid's step
                const real fmid = std::sqrt(samples[i].f * samples[i + 1].f);
                const numeric::barycentric_coeffs bc = model.coeffs_at(fmid);
                if (bc.exact_hit)
                    continue;
                const real worst = prediction_error(fmid, model, bc);
                if (worst > opt.fit_tol)
                    flagged.push_back({fmid, worst});
            }

            if (flagged.empty())
                break;
            if (round >= max_rounds || samples.size() >= budget) {
                res.converged = false;
                break;
            }
            const std::size_t remaining = budget - samples.size();
            if (flagged.size() > remaining) {
                // Spend what is left on the worst offenders.
                std::sort(flagged.begin(), flagged.end(),
                          [](const flagged_candidate& a, const flagged_candidate& b) {
                              if (a.err != b.err)
                                  return a.err > b.err;
                              return a.f < b.f;
                          });
                flagged.resize(remaining);
            }
            std::vector<real> to_solve;
            to_solve.reserve(flagged.size());
            for (const flagged_candidate& c : flagged)
                to_solve.push_back(c.f);
            solve(std::move(to_solve));
        }

        res.model_order = model.support_count();
        res.model_fit_error = model.fit_error();
        res.model = model;

        // Output grid: every solved frequency plus the dense grid points
        // that do not (nearly) coincide with one. Solved points carry the
        // exact solver values; the rest are evaluated from the model.
        constexpr std::size_t from_model = std::numeric_limits<std::size_t>::max();
        std::vector<std::size_t> origin; // samples index, or from_model
        const auto build_output = [&] {
            res.freq_hz.clear();
            origin.clear();
            std::size_t di = 0;
            for (std::size_t si = 0; si <= samples.size(); ++si) {
                const real next_solved = si < samples.size()
                    ? samples[si].f
                    : std::numeric_limits<real>::infinity();
                for (; di < dense.size() && dense[di] < next_solved; ++di) {
                    if (si < samples.size() && same_freq(dense[di], next_solved))
                        break;
                    if (!res.freq_hz.empty() && same_freq(res.freq_hz.back(), dense[di]))
                        continue;
                    res.freq_hz.push_back(dense[di]);
                    origin.push_back(from_model);
                }
                if (si < samples.size()) {
                    while (di < dense.size() && same_freq(dense[di], next_solved))
                        ++di;
                    res.freq_hz.push_back(samples[si].f);
                    origin.push_back(si);
                }
            }

            res.values.assign(channels.size(), std::vector<cplx>(res.freq_hz.size()));
            for (std::size_t k = 0; k < res.freq_hz.size(); ++k) {
                if (origin[k] != from_model) {
                    for (std::size_t c = 0; c < channels.size(); ++c)
                        res.values[c][k]
                            = samples[origin[k]].x[channels[c].rhs * n + channels[c].unknown];
                    continue;
                }
                // One barycentric coefficient set per output point serves
                // all channels (shared support and weights).
                const numeric::barycentric_coeffs bc = model.coeffs_at(res.freq_hz[k]);
                for (std::size_t c = 0; c < channels.size(); ++c)
                    res.values[c][k] = model.eval_with(bc, c);
            }
        };
        build_output();

        // Output validation: model-derived points that could be wrong get
        // the full backward-error check, and failures are solved directly
        // and patched in, so a response the model cannot represent
        // degrades gracefully to direct solves instead of leaking model
        // artifacts into results. When refinement CONVERGED, every
        // inter-sample midpoint already passed the check and the model
        // interpolates the solved endpoints exactly, so the only spike
        // mechanism left is a model pole inside an interval — flagged for
        // cheap by the barycentric denominator's cancellation ratio.
        // When refinement gave up (saturated model or exhausted budget),
        // every model point is suspect and all of them are checked.
        constexpr real health_floor = 1e-3;
        std::vector<real> failed;
        for (std::size_t k = 0; k < res.freq_hz.size(); ++k) {
            if (origin[k] != from_model)
                continue;
            const numeric::barycentric_coeffs bc = model.coeffs_at(res.freq_hz[k]);
            if (bc.exact_hit)
                continue;
            if (!res.converged || bc.denom_health < health_floor)
                if (prediction_error(res.freq_hz[k], model, bc) > opt.fit_tol)
                    failed.push_back(res.freq_hz[k]);
        }
        if (!failed.empty()) {
            solve(std::move(failed));
            build_output();
        }

        res.solved_freq_hz.resize(samples.size());
        for (std::size_t i = 0; i < samples.size(); ++i)
            res.solved_freq_hz[i] = samples[i].f;
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
