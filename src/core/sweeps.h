// Parameterized re-analysis ("in-tool sweeps", paper section 4.2): run the
// stability analysis across a parameter grid — temperature, corners,
// named `.param` values — rebuilding the circuit per point.
//
// The declarative entry points take a core::param_grid plus either a
// circuit_template (netlist + per-point overrides; value-typed, so the
// same description drives the distributed farm in src/farm/) or a
// builder callback. Every per-point failure is RECORDED, never thrown:
// a pathological corner (singular matrix, non-convergent DC) must not
// kill the other points of a campaign.
#ifndef ACSTAB_CORE_SWEEPS_H
#define ACSTAB_CORE_SWEEPS_H

#include <functional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/param_grid.h"

namespace acstab::core {

/// Per-point outcome classification. Anything but `ok` leaves the
/// point's node result empty and its `error` text set.
enum class point_status {
    ok,              ///< analysis completed (node may still have no peak)
    dc_failed,       ///< DC operating point did not converge
    analysis_failed, ///< any other analysis error (singular matrix, ...)
    /// The farm orchestrator exhausted the point's retry budget (worker
    /// crash or wall-clock timeout on every attempt). Never produced by
    /// the in-process sweep API — an in-process failure is classified as
    /// one of the two statuses above.
    quarantined
};

/// One grid point's outcome for the watched node.
struct grid_point_result {
    grid_point point;
    node_stability node;
    point_status status = point_status::ok;
    std::string error; ///< diagnostic when status != ok
};

/// Build the circuit for a grid point into `c` and return the name of the
/// node to watch. Must be thread-safe when opt.threads != 1.
using grid_circuit_factory = std::function<std::string(spice::circuit&, const grid_point&)>;

/// Analyze every grid point in [begin, end) (global indices; pass 0 and
/// grid.size() for the whole grid — this is the farm's shard entry).
/// Results keep grid order; failures are recorded per point. Points are
/// dispatched onto the shared sweep-engine pool (opt.threads workers;
/// each point's inner frequency sweep runs serially to avoid
/// oversubscription), and results are slotted by index, so ordering and
/// values are deterministic regardless of scheduling.
[[nodiscard]] std::vector<grid_point_result>
sweep_stability_grid(const grid_circuit_factory& factory, const param_grid& grid,
                     std::size_t begin, std::size_t end, const stability_options& opt = {});

/// Whole-grid convenience overload.
[[nodiscard]] std::vector<grid_point_result>
sweep_stability_grid(const grid_circuit_factory& factory, const param_grid& grid,
                     const stability_options& opt = {});

/// Declarative form: rebuild from a netlist template at each point and
/// watch `node` everywhere.
[[nodiscard]] std::vector<grid_point_result>
sweep_stability_grid(const circuit_template& tmpl, const std::string& node,
                     const param_grid& grid, const stability_options& opt = {});

} // namespace acstab::core

#endif // ACSTAB_CORE_SWEEPS_H
