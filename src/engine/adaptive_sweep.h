// Adaptive frequency-grid driver: rational-interpolated sweeps that
// factor 5-10x fewer points than the fixed per-decade grid.
//
// The fixed-grid engine spends one LU factorization per grid point even
// where the response is flat. Frequency responses of lumped linear
// circuits are exactly rational and — for stable closed loops — of low
// visible order over any finite band (Cooman et al., "Model-Free
// Closed-Loop Stability Analysis"), so a barycentric rational model
// fitted to a few solved samples predicts the rest of the band. The
// driver exploits that:
//
//   anchor   solve a coarse log grid (~4 points/decade) through the
//            shared sweep engine (thread pool + shared symbolic LU);
//   fit      AAA-fit one shared-support rational model to the observable
//            channels (numeric/aaa.h), all right-hand sides at once;
//   refine   at each candidate midpoint of adjacent solved frequencies,
//            predict the FULL solution vector of every right-hand side
//            from the model's barycentric coefficients (common weights
//            make this a short linear combination of stored solutions)
//            and measure the backward error ||Y(jw) x - b|| with one
//            matrix assembly and one SpMV per RHS — no factorization.
//            Frequencies whose worst-RHS backward error exceeds fit_tol
//            are solved for real in one batched engine pass, and the
//            loop repeats (bisection) until every candidate passes or
//            the budget is exhausted;
//   evaluate the dense output grid is evaluated from the fitted model
//            (exact solved values where available), so downstream
//            consumers see the same dense, now mildly non-uniform grid
//            with 5-10x fewer factorizations behind it.
//
// Multi-RHS batches (all-nodes analysis, loop gain's two injections)
// refine on the worst error over all right-hand sides, so a single
// refined grid serves every RHS.
#ifndef ACSTAB_ENGINE_ADAPTIVE_SWEEP_H
#define ACSTAB_ENGINE_ADAPTIVE_SWEEP_H

#include <cstddef>
#include <vector>

#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "numeric/aaa.h"

namespace acstab::engine {

struct adaptive_sweep_options {
    real fstart = 1e3;
    real fstop = 1e9;
    /// Density of the coarse anchor grid that is always solved.
    std::size_t anchors_per_decade = 4;
    /// Density of the dense output grid evaluated from the model (the
    /// fixed path's points_per_decade equivalent).
    std::size_t output_points_per_decade = 40;
    /// Relative backward-error tolerance of the model's predicted
    /// solutions; candidates above it are solved for real. Responses of
    /// lumped circuits are exactly rational, so tightening this costs few
    /// extra solves while keeping margins within rounding of the dense
    /// sweep.
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
    /// Dense output grid: the log grid at output_points_per_decade merged
    /// with every solved frequency (sorted, near-duplicates removed) —
    /// mildly non-uniform by construction.
    std::vector<real> freq_hz;
    /// Channel values on freq_hz: exact solver output at solved
    /// frequencies, model evaluation elsewhere. [channel][freq index].
    std::vector<std::vector<cplx>> values;
    /// Frequencies actually factored and solved, ascending.
    std::vector<real> solved_freq_hz;
    /// LU factorizations performed (one per solved frequency; the fixed
    /// path's count is the full output grid size).
    std::size_t factorizations = 0;
    /// Support-point count of the final rational model.
    std::size_t model_order = 0;
    /// Scaled least-squares error of the final fit at solved samples.
    real model_fit_error = 0.0;
    /// The final fitted rational model itself (components in channel
    /// order). Downstream consumers evaluate it at arbitrary density, or
    /// extract its poles/level crossings as a low-order closed-loop
    /// estimate (the impedance-partition analysis does both).
    numeric::aaa_model model;
    /// False when the round or point budget ran out with candidates still
    /// failing the residual check (results are then best-effort).
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
