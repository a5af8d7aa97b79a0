// Small-signal AC analysis: linearize every device ONCE at the DC
// operating point (engine::linearized_snapshot) and solve the complex MNA
// system at each sweep frequency through the shared sweep engine, which
// reuses one sparsity pattern, refactors numerically between frequencies
// and distributes the grid over the process-wide thread pool.
#ifndef ACSTAB_SPICE_AC_ANALYSIS_H
#define ACSTAB_SPICE_AC_ANALYSIS_H

#include <string>
#include <vector>

#include "engine/sweep_channels.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/mna.h"

namespace acstab::spice {

/// With `adaptive` set, the passed grid defines the band and output
/// density of the adaptive sweep (engine::grid_band), which then returns
/// that grid, and the model fits every MNA unknown, so the full solution
/// is available on either path.
struct ac_options : engine::sweep_config {
    real gmin = 1e-12;
    /// Node-to-ground shunt conductance regularizing floating nodes in the
    /// complex system (mirrors the DC gshunt).
    real gshunt = 0.0;
    /// When non-null, AC stimuli of all other sources are zeroed (the
    /// paper's auto-zero feature); this one drives the circuit alone.
    const device* exclusive_source = nullptr;
};

/// Complex response of every MNA unknown over a frequency sweep.
struct ac_result {
    std::vector<real> freq_hz;
    std::vector<std::vector<cplx>> solution; ///< [freq index][unknown index]
    /// LU factorizations behind the sweep (fixed grid: one per point;
    /// adaptive: the usually much smaller solved-point count).
    std::size_t factorizations = 0;
};

/// Run an AC sweep about the given operating point (from dc_operating_point).
[[nodiscard]] ac_result ac_sweep(circuit& c, const std::vector<real>& freqs_hz,
                                 const std::vector<real>& op, const ac_options& opt = {});

/// Complex node response helper (ground returns 0).
[[nodiscard]] std::vector<cplx> node_response(const circuit& c, const ac_result& res,
                                              const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_AC_ANALYSIS_H
