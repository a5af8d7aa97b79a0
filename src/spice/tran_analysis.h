// Transient analysis: trapezoidal integration with a backward-Euler kick
// at t=0 and after every source breakpoint, Newton iteration per step, and
// automatic step halving when Newton stalls.
//
// Each step runs the Newton loop DC shares (newton_solver.h): no step
// limit, and an iteration whose junction limiter engaged is not
// converged. Newton solves run on the shared-symbolic path by default
// (one symbolic factorization for the whole run, numeric-only
// refactorization per solve); the seed's one-shot factor-per-solve path
// is kept behind shared_solver=false as the ablation and equivalence
// baseline.
#ifndef ACSTAB_SPICE_TRAN_ANALYSIS_H
#define ACSTAB_SPICE_TRAN_ANALYSIS_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/mna.h"
#include "spice/newton_solver.h"

namespace acstab::spice {

struct tran_options {
    real tstop = 0.0;
    /// Nominal step; the engine subdivides at breakpoints and halves on
    /// Newton failure. 0 selects tstop/1000.
    real dt = 0.0;
    real dtmin_factor = 1e-6; ///< smallest allowed step = dt * factor
    int max_newton = 60;
    real reltol = 1e-3;
    real vntol = 1e-6;
    real abstol = 1e-12;
    solver_kind solver = solver_kind::sparse;
    /// Route every Newton solve through one shared symbolic factorization
    /// with numeric-only refactorization (newton_solver). OFF selects the
    /// seed one-shot path — fresh compression + symbolic analysis +
    /// factorization per Newton iteration. Sparse-only; the dense
    /// reference solver ignores it. Both paths run the identical Newton
    /// iteration, so waveforms agree to solver rounding (<= 1e-12,
    /// CI-guarded).
    bool shared_solver = true;
    dc_options dc; ///< options for the initial operating point
};

struct tran_result {
    std::vector<real> time;
    /// Accepted solutions, step-major in one buffer: step k's unknowns
    /// are states[k * unknowns .. (k + 1) * unknowns) (see state()).
    std::vector<real> states;
    std::size_t unknowns = 0;
    /// Shared-path solver counters (all zero on the one-shot/dense path).
    newton_solver_stats solver;
    /// Set when every step size from the last stored time on gave a
    /// non-finite solution: the response grew past double range (an
    /// unstable loop), so the run stops there and the waveform ends
    /// before tstop. Never a reason to report non-finite samples.
    bool diverged = false;

    [[nodiscard]] std::size_t step_count() const noexcept { return time.size(); }

    /// Solution vector of accepted step k.
    [[nodiscard]] std::span<const real> state(std::size_t k) const noexcept
    {
        return {states.data() + k * unknowns, unknowns};
    }

    /// Waveform of one unknown over time.
    [[nodiscard]] std::vector<real> unknown_waveform(std::size_t index) const;
};

/// Most nominal steps (tstop / dt) one transient run may plan. Every
/// step stores a solution vector, so a window far beyond this outgrows
/// memory long before it ends.
inline constexpr real max_tran_steps = 1e6;

/// Refuse a time window no transient run should start: tstop must be
/// positive, dt non-negative (0 selects a default step) and tstop / dt
/// at most max_tran_steps. Errors are prefixed with `who`.
void check_tran_window(const std::string& who, real tstop, real dt);

/// Run a transient analysis starting from the DC operating point.
[[nodiscard]] tran_result transient(circuit& c, const tran_options& opt);

/// Time-domain waveform of a named node.
[[nodiscard]] std::vector<real> node_waveform(const circuit& c, const tran_result& res,
                                              const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_TRAN_ANALYSIS_H
