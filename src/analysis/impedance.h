// Impedance-partition stability analysis (Zhao & Jiang, "Revisiting
// Nyquist-Like Impedance-Based Criteria"; Middlebrook's minor-loop idea).
//
// The stability question asked at an internal node by the paper's
// stability plot can equivalently be asked at a PARTITION PORT: split the
// circuit at a node into a source side and a load side, extract each
// side's driving-point impedance Z_s(jw) / Z_l(jw), and apply a
// Nyquist-like test to the minor-loop gain L_m = Z_s / Z_l. The closed
// interconnection's natural frequencies are the zeros of Z_s + Z_l, so —
// with both sides individually stable — the interface is stable exactly
// when L_m does not encircle -1.
//
// Engine mapping: both sides are linearized ONCE about the full circuit's
// operating point (a snapshot_options::device_filter keeps only one
// side's stamps), and each side costs one batched unit-current RHS sweep
// against its snapshot — the same machinery as the stability plot, two
// more right-hand-side batches. The opt-in adaptive path runs each side
// through the adaptive driver, whose output grid is the same fixed grid
// for both, and AAA-fits the impedance ratio; the fitted model's -1 level
// crossings are reported as a low-order estimate of the closed-loop poles
// (Cooman et al.'s model-free view).
#ifndef ACSTAB_ANALYSIS_IMPEDANCE_H
#define ACSTAB_ANALYSIS_IMPEDANCE_H

#include <string>
#include <vector>

#include "analysis/pole_zero.h"
#include "engine/sweep_channels.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/measure.h"
#include "spice/mna.h"

namespace acstab::analysis {

/// With `adaptive` set, each side runs the adaptive driver on the shared
/// grid and the impedance ratio gets an AAA fit with closed-loop pole
/// estimates.
struct impedance_options : engine::sweep_config {
    real fstart = 1e3;
    real fstop = 1e9;
    std::size_t points_per_decade = 40;
    real gmin = 1e-12;
    /// Node-to-ground regularization; also holds up the nodes a side
    /// snapshot loses to the excluded devices.
    real gshunt = 1e-9;
    /// Element names forced onto the source side. Needed when every
    /// element at the partition node shunts it straight to ground (an RLC
    /// tank), where connectivity alone cannot tell the sides apart.
    std::vector<std::string> source_elements;
    spice::dc_options dc;
};

/// The two device sets of a partition (every device lands in exactly one).
struct impedance_partition {
    std::string node;
    std::vector<std::string> source_devices;
    std::vector<std::string> load_devices;
};

/// Split the circuit at `node`: connected components of the device graph
/// with the partition node and ground removed become the sides (a
/// current-controlled source joins its controlling voltage source's
/// component). A component is source-side when it contains an
/// independent source or a device named in `force_source`; everything
/// else — including elements shunting the partition node straight to
/// ground — is load-side.
/// Throws analysis_error when either side ends up empty (the partition
/// is ambiguous; pass force_source) or the node is source-forced.
[[nodiscard]] impedance_partition
partition_at_node(spice::circuit& c, const std::string& node,
                  const std::vector<std::string>& force_source = {});

struct impedance_result {
    impedance_partition partition;
    std::vector<real> freq_hz;
    std::vector<cplx> z_source; ///< source-side driving-point impedance
    std::vector<cplx> z_load;   ///< load-side driving-point impedance
    std::vector<cplx> minor_loop; ///< L_m = Z_s / Z_l on freq_hz

    /// Gain/phase margins of the minor-loop gain.
    spice::bode_margins margins;
    /// Net clockwise encirclements of -1 by L_m on the swept contour
    /// (positive frequencies doubled by conjugate symmetry), counted from
    /// signed real-axis crossings left of -1. With individually stable
    /// sides this equals the closed interconnection's RHP pole count.
    int encirclements = 0;
    /// Closest approach of L_m to -1 and where it happens — the
    /// Nyquist-style robustness margin of the interface.
    real nyquist_margin = 0.0;
    real nyquist_margin_freq_hz = 0.0;
    /// The Nyquist-like verdict: no net encirclements of -1.
    bool stable = true;

    /// LU factorizations spent across both side sweeps.
    std::size_t factorizations = 0;

    // Populated on the adaptive path only: AAA model of L_m and the
    // closed-loop pole estimates from its -1 level crossings (s-plane,
    // conventions of analysis::pole).
    bool has_model = false;
    std::size_t model_order = 0;
    real model_fit_error = 0.0;
    std::vector<pole> closed_loop_poles;
};

/// Partition at `node` and run the Nyquist-like impedance-ratio analysis.
[[nodiscard]] impedance_result analyze_impedance(spice::circuit& c, const std::string& node,
                                                 const impedance_options& opt = {});

} // namespace acstab::analysis

#endif // ACSTAB_ANALYSIS_IMPEDANCE_H
