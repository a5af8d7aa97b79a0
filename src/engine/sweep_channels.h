// The one frequency-sweep entry point behind every small-signal analysis
// (stability single-node and all-nodes, loop gain, impedance, ac, Bode).
// An analysis names its right-hand sides and the solution entries
// ("channels") it observes; sweep_channels() picks the fixed log grid
// (sweep engine) or the adaptive rational-fit driver from the analysis's
// sweep_config and streams channel values to the caller.
#ifndef ACSTAB_ENGINE_SWEEP_CHANNELS_H
#define ACSTAB_ENGINE_SWEEP_CHANNELS_H

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"

namespace acstab::engine {

/// The stability plot's density floor (its second-derivative stencils).
inline constexpr std::size_t min_points_per_decade = 4;

/// Logarithmic frequency sweep description.
struct sweep_spec {
    real fstart = 1e3;
    real fstop = 1e9;
    std::size_t points_per_decade = 40;

    /// The realized log-spaced grid (includes both endpoints). Throws
    /// unless 0 < fstart < fstop and the density is at least
    /// min_points_per_decade.
    [[nodiscard]] std::vector<real> frequencies() const;
};

/// Band and density of an existing log grid: the smallest density that
/// numeric::log_grid maps to the grid's size, so the adaptive output grid
/// is the passed grid (when it holds at least the driver's 8 points). The
/// grid must be positive, strictly ascending and hold at least 2 points.
[[nodiscard]] sweep_spec grid_band(const std::vector<real>& freqs_hz);

/// How every frequency-domain analysis sweeps; their option structs
/// inherit it.
struct sweep_config {
    /// Worker threads (1 = serial, 0 = all hardware threads).
    std::size_t threads = 1;
    spice::solver_kind solver = spice::solver_kind::sparse;
    /// Ordering / kernel tuning forwarded to the sweep engine.
    solver_tuning tuning;
    /// Adaptive frequency grid (engine/adaptive_sweep.h): factor a subset
    /// of the grid and fill the rest from a fitted rational model.
    bool adaptive = false;
    /// Relative tolerance of the adaptive model.
    real fit_tol = 1e-6;
    /// Anchor density of the adaptive sweep's always-solved coarse grid.
    std::size_t anchors_per_decade = 4;
};

/// `grid` receives the output grid once, before any value; `value` then
/// receives every (frequency index, channel index) exactly once. On the
/// fixed grid the value calls come from the engine's pool workers,
/// concurrently but for distinct pairs.
struct channel_sink {
    std::function<void(const std::vector<real>& freq_hz)> grid;
    std::function<void(std::size_t fi, std::size_t channel, cplx value)> value;
};

struct channel_sweep {
    std::vector<real> freq_hz;      ///< output grid
    std::size_t factorizations = 0; ///< the fixed grid: one per point
};

/// Sweep unit injections over `grid_hz`, or adaptively over `band`
/// (grid_band(grid_hz) when absent), and stream the channels. With no
/// channels there is nothing to fit and the fixed grid runs.
[[nodiscard]] channel_sweep sweep_channels(const linearized_snapshot& snap,
                                           const std::vector<real>& grid_hz,
                                           const std::optional<sweep_spec>& band,
                                           const std::vector<sweep_engine::injection>& injections,
                                           const std::vector<adaptive_channel>& channels,
                                           const sweep_config& cfg, const channel_sink& sink);

/// The same with dense right-hand sides (e.g. the snapshot's
/// stimulus_rhs()).
[[nodiscard]] channel_sweep sweep_channels(const linearized_snapshot& snap,
                                           const std::vector<real>& grid_hz,
                                           const std::optional<sweep_spec>& band,
                                           const std::vector<std::vector<cplx>>& rhs_batch,
                                           const std::vector<adaptive_channel>& channels,
                                           const sweep_config& cfg, const channel_sink& sink);

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_SWEEP_CHANNELS_H
