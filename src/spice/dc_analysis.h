// DC operating-point analysis: Newton–Raphson under the SPICE3 rules
// (per-node step limit, junction limiting that blocks convergence; see
// newton_solver.h) on one shared-symbolic solver, falling back to a
// gshunt retry, gmin stepping and then source stepping (the standard
// SPICE continuation ladder). The returned point is polished to roundoff.
#ifndef ACSTAB_SPICE_DC_ANALYSIS_H
#define ACSTAB_SPICE_DC_ANALYSIS_H

#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/mna.h"

namespace acstab::spice {

struct dc_options {
    real gmin = 1e-12;
    /// Node-to-ground shunt added to every node row; 0 disables. When the
    /// plain solve hits a singular matrix (floating node), the analysis
    /// retries once with `gshunt_retry` if that is positive.
    real gshunt = 0.0;
    real gshunt_retry = 1e-9;
    int max_iterations = 200;
    real reltol = 1e-3;
    real vntol = 1e-6;
    real abstol = 1e-12;
    /// Largest Newton update of each node voltage per iteration [V];
    /// branch currents are not limited. 0 disables the limit.
    real max_step = 2.0;
    /// sparse: every Newton iteration refactors on one shared symbolic
    /// analysis (newton_solver). dense: one-shot dense LU per iteration,
    /// the test oracle.
    solver_kind solver = solver_kind::sparse;
    bool allow_gmin_stepping = true;
    bool allow_source_stepping = true;
};

struct dc_result {
    std::vector<real> solution; ///< node voltages then branch currents
    /// Newton iterations of the final solve, counting its polish steps
    /// (continuation steps and failed rungs are not counted).
    int iterations = 0;
    bool used_gmin_stepping = false;
    bool used_source_stepping = false;
    bool used_gshunt = false;
};

/// Compute the DC operating point. Throws convergence_error if every
/// continuation strategy fails.
[[nodiscard]] dc_result dc_operating_point(circuit& c, const dc_options& opt = {});

/// Voltage of a named node in a solution vector.
[[nodiscard]] real node_voltage(const circuit& c, const std::vector<real>& solution,
                                const std::string& node_name);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DC_ANALYSIS_H
