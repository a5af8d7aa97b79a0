// Small-signal AC analysis: linearize every device ONCE at the DC
// operating point (engine::linearized_snapshot) and solve the complex MNA
// system at each sweep frequency through the shared sweep engine, which
// reuses one sparsity pattern, refactors numerically between frequencies
// and distributes the grid over the process-wide thread pool.
#ifndef ACSTAB_SPICE_AC_ANALYSIS_H
#define ACSTAB_SPICE_AC_ANALYSIS_H

#include <string>
#include <vector>

#include "engine/sweep_engine.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/mna.h"

namespace acstab::spice {

struct ac_options {
    solver_kind solver = solver_kind::sparse;
    real gmin = 1e-12;
    /// Node-to-ground shunt conductance regularizing floating nodes in the
    /// complex system (mirrors the DC gshunt).
    real gshunt = 0.0;
    /// When non-null, AC stimuli of all other sources are zeroed (the
    /// paper's auto-zero feature); this one drives the circuit alone.
    const device* exclusive_source = nullptr;
    /// Worker threads for the sweep (1 = serial, 0 = all hardware threads).
    std::size_t threads = 1;
    /// Adaptive frequency grid (engine/adaptive_sweep): the passed grid
    /// defines band and output density; one channel per MNA unknown is
    /// fitted, so the FULL solution vector is available at every output
    /// frequency (exact where solved, model-evaluated elsewhere) and
    /// `.ac` cards in `acstab run` decks ride the adaptive path too.
    bool adaptive = false;
    real fit_tol = 1e-6;
    std::size_t anchors_per_decade = 4;
    /// Sparse-solver tuning (ordering / SIMD kernel / supernodal path)
    /// forwarded to the sweep engine.
    engine::solver_tuning tuning;
};

/// Complex response of every MNA unknown over a frequency sweep.
struct ac_result {
    std::vector<real> freq_hz;
    std::vector<std::vector<cplx>> solution; ///< [freq index][unknown index]
    /// LU factorizations behind the sweep (fixed grid: one per point;
    /// adaptive: the usually much smaller solved-point count).
    std::size_t factorizations = 0;

    [[nodiscard]] std::size_t point_count() const noexcept { return freq_hz.size(); }

    /// Response of one unknown across the sweep.
    [[nodiscard]] std::vector<cplx> unknown_response(std::size_t index) const;

    /// Magnitude of one unknown across the sweep.
    [[nodiscard]] std::vector<real> unknown_magnitude(std::size_t index) const;
};

/// Run an AC sweep about the given operating point (from dc_operating_point).
[[nodiscard]] ac_result ac_sweep(circuit& c, const std::vector<real>& freqs_hz,
                                 const std::vector<real>& op, const ac_options& opt = {});

/// Complex node response helper (ground returns 0).
[[nodiscard]] std::vector<cplx> node_response(const circuit& c, const ac_result& res,
                                              const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_AC_ANALYSIS_H
