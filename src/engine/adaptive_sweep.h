// Adaptive frequency-grid driver: rational-interpolated sweeps that
// factor a fraction of the fixed per-decade grid's points and return
// that grid.
//
// The fixed-grid engine spends one LU factorization per grid point even
// where the response is flat. Frequency responses of lumped linear
// circuits are exactly rational and — for stable closed loops — of low
// visible order over any finite band (Cooman et al., "Model-Free
// Closed-Loop Stability Analysis"), so a barycentric rational model
// fitted to a few solved samples predicts the rest of the band. Every
// sample is a point of the output grid, the fixed grid the sweep
// replaces, so no run factors more frequencies than that grid:
//
//   anchor   solve the grid points nearest a coarse log grid (~4
//            points/decade), both ends included, through the shared
//            sweep engine (thread pool + shared symbolic LU);
//   fit      AAA-fit one shared-support rational model to the observable
//            channels (numeric/aaa.h), all right-hand sides at once;
//   screen   at the middle grid point between solved neighbours at least
//            two points apart, predict the FULL solution vector of every
//            right-hand side from the model's barycentric coefficients
//            (common weights make this a short linear combination of
//            stored solutions) and measure the backward error
//            ||Y(jw) x - b|| with one matrix assembly and one SpMV per
//            RHS — no factorization. Candidates whose worst-RHS backward
//            error exceeds fit_tol are flagged;
//   confirm  record the model's prediction of every channel at the
//            flagged points, then solve them in one batched engine pass.
//            When every solved channel value v is finite and within
//            fit_tol * |v| of its prediction, the batch confirms the
//            model and refinement ends; otherwise the loop refits and
//            screens again;
//   evaluate the output grid carries exact values at solved points and
//            the model elsewhere. A model point next to a model pole
//            (barycentric cancellation) is screened and solved if it
//            fails.
//
// Refinement gives up on a model saturated at its support cap or at the
// round cap; it then solves every grid point not yet solved and returns
// the fixed grid's exact values. Multi-RHS batches (all-nodes analysis,
// loop gain's two injections) screen on the worst error over all
// right-hand sides and confirm on every channel, so a single refined
// grid serves every RHS.
#ifndef ACSTAB_ENGINE_ADAPTIVE_SWEEP_H
#define ACSTAB_ENGINE_ADAPTIVE_SWEEP_H

#include <cstddef>
#include <string_view>
#include <vector>

#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"

namespace acstab::engine {

/// Largest fit_tol at which the adaptive sweep keeps the README's
/// accuracy contract (fn within 1%, PM within 0.5 deg of the fixed grid).
/// Above it the model confirms itself on too few solves: at 0.1 the
/// impedance cross-check of a 700-unknown loop mesh reads fn 865 kHz
/// against the fixed grid's 676 kHz, and at 10 rlc_tank's stability plot
/// reads zeta 0.0116 against 0.2025.
inline constexpr real max_fit_tol = 1e-2;

/// Throws analysis_error unless 0 < fit_tol <= max_fit_tol; `what` names
/// the flag or plan key in the message.
void check_fit_tol(real fit_tol, std::string_view what);

struct adaptive_sweep_options {
    real fstart = 1e3;
    real fstop = 1e9;
    /// Density of the coarse anchor grid that is always solved.
    std::size_t anchors_per_decade = 4;
    /// Density of the output grid (the fixed path's points_per_decade
    /// equivalent); every solved frequency is one of its points.
    std::size_t output_points_per_decade = 40;
    /// Relative tolerance of the model: on the backward error of its
    /// predicted solutions (the screen) and on the error of its channel
    /// predictions at a solved batch (the confirmation). Responses of
    /// lumped circuits are exactly rational, so tightening this costs few
    /// extra solves while keeping margins within rounding of the dense
    /// sweep. At most max_fit_tol.
    real fit_tol = 1e-6;
    sweep_engine_options engine;
};

/// One scalar observable: entry `unknown` of right-hand side `rhs`'s
/// solution. The rational model is fitted to these channels.
struct adaptive_channel {
    std::size_t rhs = 0;
    std::size_t unknown = 0;
};

struct adaptive_sweep_result {
    /// Output grid: numeric::log_grid(fstart, fstop,
    /// output_points_per_decade, 8), the fixed grid itself.
    std::vector<real> freq_hz;
    /// Channel values on freq_hz: exact solver output at solved
    /// frequencies, model evaluation elsewhere. [channel][freq index].
    std::vector<std::vector<cplx>> values;
    /// Frequencies actually factored and solved, ascending (a subset of
    /// freq_hz).
    std::vector<real> solved_freq_hz;
    /// LU factorizations performed: one per solved frequency, never more
    /// than the output grid's size (the fixed path's count).
    std::size_t factorizations = 0;
    /// Support-point count of the final rational model.
    std::size_t model_order = 0;
    /// Scaled least-squares error of the final fit at solved samples.
    real model_fit_error = 0.0;
    /// False when refinement gave up (saturated model or round cap); every
    /// grid point is then solved and the values are exact.
    bool converged = true;
};

class adaptive_sweep {
public:
    explicit adaptive_sweep(adaptive_sweep_options opt = {});

    [[nodiscard]] const adaptive_sweep_options& options() const noexcept { return opt_; }

    /// Adaptive counterpart of sweep_engine::run_injections.
    [[nodiscard]] adaptive_sweep_result
    run_injections(const linearized_snapshot& snap,
                   const std::vector<sweep_engine::injection>& injections,
                   const std::vector<adaptive_channel>& channels) const;

    /// Adaptive counterpart of sweep_engine::run (dense right-hand sides).
    [[nodiscard]] adaptive_sweep_result run(const linearized_snapshot& snap,
                                            const std::vector<std::vector<cplx>>& rhs_batch,
                                            const std::vector<adaptive_channel>& channels) const;

private:
    adaptive_sweep_options opt_;
};

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_ADAPTIVE_SWEEP_H
