// The stability analysis tool (paper sections 2, 4, 6).
//
// Single-node mode attaches an AC current stimulus to the selected node —
// without modifying anything else — sweeps it over frequency, and builds
// the node's stability plot with an estimated phase margin.
//
// All-nodes mode evaluates every circuit node. Both modes run through the
// unified sweep engine (src/engine/): devices are linearized once into a
// G + jwC snapshot, the complex MNA matrix is factored once per frequency
// and back-solved with one unit-current right-hand side per node — which
// is algebraically identical to the paper's one-simulation-per-node loop
// but orders of magnitude faster — and frequencies are distributed over
// the shared persistent thread pool (the paper lists "computer farm run
// capability" as future work).
#ifndef ACSTAB_CORE_ANALYZER_H
#define ACSTAB_CORE_ANALYZER_H

#include <optional>
#include <string>
#include <vector>

#include "core/stability_plot.h"
#include "engine/sweep_channels.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/mna.h"

namespace acstab::core {

/// Sweep settings (threads, solver, adaptive grid) come from the
/// inherited engine::sweep_config; `sweep` is the band.
struct stability_options : engine::sweep_config {
    sweep_spec sweep;
    plot_options plot;
    /// AC stimulus magnitude [A]. The analysis is linear, so this only
    /// scales the response; 1 A keeps |V| = |Z| directly.
    real stimulus_amps = 1.0;
    real gmin = 1e-12;
    /// Node-to-ground regularization so driving-point impedances of
    /// capacitively floating nodes stay finite.
    real gshunt = 1e-9;
    /// Relative natural-frequency tolerance when grouping nodes into loops.
    real group_rel_tol = 0.12;
    /// Options for the underlying operating-point solve.
    spice::dc_options dc;
};

/// Stability result for one node.
struct node_stability {
    std::string node;
    stability_plot plot;
    bool has_peak = false;       ///< a complex-pole signature was found
    stability_peak dominant;     ///< valid when has_peak
    /// True when the dominant peak is a proper under-damped complex-pole
    /// signature (normal flag, |P| > 1 i.e. zeta < 1); only then are the
    /// margin estimates below meaningful.
    bool is_underdamped = false;
    real zeta = 0.0;             ///< damping ratio from eq. (1.4)
    real phase_margin_est_deg = 0.0; ///< paper's rule-of-thumb estimate
    real overshoot_est_pct = 0.0;    ///< equivalent step overshoot
};

/// Nodes clustered by natural frequency ("Loop at 3.3 MHz", Table 2).
struct loop_group {
    real freq_hz = 0.0;               ///< representative natural frequency
    std::vector<std::size_t> members; ///< indices into stability_report::nodes
};

struct stability_report {
    std::vector<node_stability> nodes; ///< sorted by natural frequency
    std::vector<loop_group> loops;
    std::vector<std::string> skipped_nodes; ///< source-forced, not analyzed
    /// LU factorizations the sweep performed (one per grid point).
    std::size_t factorizations = 0;
};

class stability_analyzer {
public:
    explicit stability_analyzer(spice::circuit& c, stability_options opt = {});

    [[nodiscard]] const stability_options& options() const noexcept { return opt_; }
    [[nodiscard]] spice::circuit& circuit() noexcept { return circuit_; }

    /// DC operating point, solved once and cached.
    const std::vector<real>& operating_point();

    /// "Single Node" run mode: stimulus attached to the named node.
    [[nodiscard]] node_stability analyze_node(const std::string& node_name);

    /// "All Nodes" run mode with loop grouping. Always sweeps the fixed
    /// grid; the `adaptive` option applies to single-node runs only.
    [[nodiscard]] stability_report analyze_all_nodes();

    /// Invalidate the cached operating point after circuit edits.
    void invalidate_operating_point() noexcept { op_.reset(); }

private:
    [[nodiscard]] node_stability make_node_result(std::string node_name,
                                                  std::vector<real> freqs,
                                                  std::vector<real> magnitude) const;

    spice::circuit& circuit_;
    stability_options opt_;
    std::optional<spice::dc_result> op_;
};

/// Group nodes with pole peaks into loops by natural-frequency proximity.
[[nodiscard]] std::vector<loop_group> group_loops(const std::vector<node_stability>& nodes,
                                                  real rel_tol);

} // namespace acstab::core

#endif // ACSTAB_CORE_ANALYZER_H
