// Baseline 1 (paper Fig. 3): classic open-loop Bode analysis. The loop is
// broken by construction in the fixture circuit; this module measures the
// transfer function from a named source to a named node and extracts the
// gain/phase margins.
#ifndef ACSTAB_ANALYSIS_BODE_H
#define ACSTAB_ANALYSIS_BODE_H

#include <string>
#include <vector>

#include "engine/sweep_channels.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/measure.h"

namespace acstab::analysis {

struct frequency_response {
    std::vector<real> freq_hz;
    std::vector<cplx> h;            ///< V(node) / stimulus
    spice::bode_margins margins;    ///< unity/phase crossings
    /// LU factorizations behind the sweep (fixed grid: one per point).
    std::size_t factorizations = 0;
};

/// With `adaptive` set, the passed grid defines the band and output
/// density of the adaptive sweep (engine::grid_band).
struct bode_options : engine::sweep_config {
    real gmin = 1e-12;
    real gshunt = 0.0;
    spice::dc_options dc;
};

/// Sweep the circuit and return V(output_node)/AC(source), with margins.
/// The named source must carry a nonzero AC magnitude; every other AC
/// stimulus is zeroed for the measurement.
[[nodiscard]] frequency_response measure_response(spice::circuit& c,
                                                  const std::string& source_name,
                                                  const std::string& output_node,
                                                  const std::vector<real>& freqs_hz,
                                                  const bode_options& opt = {});

} // namespace acstab::analysis

#endif // ACSTAB_ANALYSIS_BODE_H
