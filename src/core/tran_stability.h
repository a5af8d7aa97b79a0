// Time-domain stability measurement — the transient side of the paper's
// Fig. 2 cross-check.
//
// Drives a small step stimulus (through a named source element, or as a
// current step injected into the watched node when the netlist has no
// source — the transient analog of the AC analysis' nodal stimulus),
// runs the shared-solver transient, and maps the measured step response
// back onto second-order theory:
//
//   * a response with usable step swing uses the overshoot inversion
//     zeta = L / sqrt(pi^2 + L^2), L = ln(100/OS) (Table 1 read
//     backwards);
//   * a zero-swing response (driving-point injection into a bandpass
//     node, e.g. an LC tank) uses the logarithmic decrement of
//     successive same-side ring peaks instead;
//   * the equivalent phase margin applies the same rule-of-thumb mapping
//     the AC analyzer reports, min(100 * zeta, 90) degrees, so the two
//     verdicts compare like for like.
//
// The stability verdict is envelope-based: the response must stay finite
// and its ring must decay (peak deviation over the last quarter of the
// record at most half the overall peak deviation, or within 2 % of the
// reference amplitude). A sustained or growing oscillation is unstable.
#ifndef ACSTAB_CORE_TRAN_STABILITY_H
#define ACSTAB_CORE_TRAN_STABILITY_H

#include <cstddef>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/tran_analysis.h"

namespace acstab::core {

struct tran_stability_options {
    /// Element to pulse (vsource or isource): a step of `step_size` is
    /// superimposed on its DC value. Empty selects the nodal stimulus: a
    /// current step injected into the watched node through a temporary
    /// isource (added for the run, removed afterwards).
    std::string source;
    /// Step amplitude: volts on a voltage source, amps on a current
    /// source or nodal injection. Small by default so nonlinear circuits
    /// stay near the operating point the AC verdict linearized around.
    real step_size = 0.01;
    real tstop = 0.0; ///< required, > 0
    real dt = 0.0;    ///< 0 selects tstop / 4000
    /// Step onset; 0 selects tstop / 20 (a settled pre-step baseline).
    real step_delay = 0.0;
    /// Decimated-waveform cap for farm records (the full record stays in
    /// metrics.raw).
    std::size_t max_points = 257;
    /// Transient engine knobs (solver path, tolerances). tstop/dt inside
    /// are overridden by the fields above.
    spice::tran_options tran;
};

struct tran_stability_result {
    bool stable = true;
    bool ringing = false;        ///< ring detected (zero crossings about the final value)
    real overshoot_pct = 0.0;    ///< percent of the step swing (0 when swing is zero)
    real ringing_freq_hz = 0.0;
    real settling_time_s = 0.0;  ///< 2 % band entry time
    real final_value = 0.0;
    real zeta = 1.0;             ///< damping estimate (overshoot or log-decrement)
    real equiv_pm_deg = 90.0;    ///< min(100 * zeta, 90) — the AC analyzer's mapping
    spice::newton_solver_stats solver; ///< shared-path counters for the run
    std::vector<real> time;      ///< decimated step response
    std::vector<real> value;
};

/// Measure the step-response stability of `node`. Finalizes the circuit,
/// installs the stimulus, runs the transient and restores the circuit
/// (the original source spec is reinstated / the injection element is
/// removed) even on failure. Throws analysis_error for unknown nodes or
/// elements and propagates convergence_error from the transient engine.
[[nodiscard]] tran_stability_result measure_tran_stability(spice::circuit& c,
                                                           const std::string& node,
                                                           const tran_stability_options& opt);

} // namespace acstab::core

#endif // ACSTAB_CORE_TRAN_STABILITY_H
