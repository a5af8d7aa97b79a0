// Baseline 3: double-injection loop-gain probe (Middlebrook), the method
// commercial "stb" analyses build on. Like the paper's technique it does
// not break the loop; unlike it, it needs a designated probe element in
// the loop wire and two AC runs.
//
// Probe convention: a zero-volt vsource inserted in the loop wire with its
// PLUS terminal on the driving side (block A output, node x) and MINUS on
// the receiving side (block B input, node y).
//
//   Voltage injection: the probe's AC value is set to 1; for an ideal
//   unilateral loop v(x) - v(y) = 1 and the loop returns v(x) = -L v(y),
//   giving Tv = -v(x)/v(y) = L.
//   Current injection: 1 A AC is injected into node y; the probe branch
//   current i measures the A-side share and Ti = -i/(i + 1).
//   Middlebrook combination: T = (Tv*Ti - 1) / (Tv + Ti + 2), exact for
//   arbitrary port impedances when reverse transmission is negligible.
//
// Through the sweep engine both injections are just two right-hand sides
// of the same zero-stimulus linearized system, so the historical pair of
// full serial AC runs collapses into ONE pass: a single factorization and
// two back-solves per frequency, parallel over the grid.
#ifndef ACSTAB_ANALYSIS_LOOP_GAIN_H
#define ACSTAB_ANALYSIS_LOOP_GAIN_H

#include <string>
#include <vector>

#include "engine/sweep_channels.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/measure.h"
#include "spice/mna.h"

namespace acstab::analysis {

struct loop_gain_result {
    std::vector<real> freq_hz;
    std::vector<cplx> tv;   ///< voltage-injection partial loop gain
    std::vector<cplx> ti;   ///< current-injection partial loop gain
    std::vector<cplx> t;    ///< combined (Middlebrook) loop gain
    spice::bode_margins margins; ///< margins of the combined loop gain
    /// LU factorizations behind the sweep (fixed grid: one per point).
    std::size_t factorizations = 0;
};

/// With `adaptive` set, the passed grid defines the band and output
/// density of the adaptive sweep (engine::grid_band).
struct loop_gain_options : engine::sweep_config {
    real gmin = 1e-12;
    real gshunt = 0.0;
    spice::dc_options dc;
};

/// Measure loop gain through the named zero-volt probe vsource.
[[nodiscard]] loop_gain_result measure_loop_gain(spice::circuit& c,
                                                 const std::string& probe_vsource,
                                                 const std::vector<real>& freqs_hz,
                                                 const loop_gain_options& opt = {});

} // namespace acstab::analysis

#endif // ACSTAB_ANALYSIS_LOOP_GAIN_H
