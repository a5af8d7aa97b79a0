#include "engine/sweep_channels.h"

#include <cmath>
#include <span>
#include <type_traits>

#include "common/error.h"
#include "numeric/interpolation.h"

namespace acstab::engine {

std::vector<real> sweep_spec::frequencies() const
{
    if (!(fstart > 0.0) || !(fstop > fstart))
        throw analysis_error("sweep: need 0 < fstart < fstop");
    if (points_per_decade < min_points_per_decade)
        throw analysis_error("sweep: need at least 4 points per decade");
    // The canonical grid shared with the CLI and the adaptive driver's
    // anchor/output grids (numeric/interpolation.h).
    return numeric::log_grid(fstart, fstop, points_per_decade, 8);
}

sweep_spec grid_band(const std::vector<real>& freqs_hz)
{
    if (freqs_hz.size() < 2)
        throw analysis_error("adaptive sweep: need a grid of >= 2 points");
    if (!(freqs_hz.front() > 0.0))
        throw analysis_error("adaptive sweep: frequencies must be positive");
    for (std::size_t i = 1; i < freqs_hz.size(); ++i)
        if (!(freqs_hz[i] > freqs_hz[i - 1]))
            throw analysis_error("adaptive sweep: frequency grid must be ascending");

    // log_grid realizes n = ceil(decades * ppd) + 1 points; the smallest
    // density it maps to this n is floor((n - 2) / decades) + 1.
    const real decades = std::log10(freqs_hz.back() / freqs_hz.front());
    const real ppd = std::floor(static_cast<real>(freqs_hz.size() - 2) / decades) + 1.0;
    return {freqs_hz.front(), freqs_hz.back(), static_cast<std::size_t>(ppd)};
}

namespace {

    sweep_engine_options engine_options(const sweep_config& cfg)
    {
        sweep_engine_options eopt;
        eopt.threads = cfg.threads;
        eopt.solver = cfg.solver;
        eopt.tuning = cfg.tuning;
        return eopt;
    }

    /// Rhs is the injection list or the dense batch; the engine and the
    /// adaptive driver take either.
    template <class Rhs>
    channel_sweep sweep(const linearized_snapshot& snap, const std::vector<real>& grid_hz,
                        const std::optional<sweep_spec>& band, const Rhs& rhs,
                        const std::vector<adaptive_channel>& channels, const sweep_config& cfg,
                        const channel_sink& sink)
    {
        constexpr bool injections = std::is_same_v<Rhs, std::vector<sweep_engine::injection>>;
        for (const adaptive_channel& ch : channels)
            if (ch.rhs >= rhs.size() || ch.unknown >= snap.size())
                throw analysis_error("sweep: channel index out of range");

        if (cfg.adaptive && !channels.empty()) {
            const sweep_spec b = band ? *band : grid_band(grid_hz);
            adaptive_sweep_options aopt;
            aopt.fstart = b.fstart;
            aopt.fstop = b.fstop;
            aopt.output_points_per_decade = b.points_per_decade;
            aopt.anchors_per_decade = cfg.anchors_per_decade;
            aopt.fit_tol = cfg.fit_tol;
            aopt.engine = engine_options(cfg);
            const adaptive_sweep driver(aopt);
            adaptive_sweep_result res;
            if constexpr (injections)
                res = driver.run_injections(snap, rhs, channels);
            else
                res = driver.run(snap, rhs, channels);
            sink.grid(res.freq_hz);
            for (std::size_t c = 0; c < channels.size(); ++c)
                for (std::size_t fi = 0; fi < res.freq_hz.size(); ++fi)
                    sink.value(fi, c, res.values[c][fi]);
            return {std::move(res.freq_hz), res.factorizations};
        }

        // Channels grouped by right-hand side, so the engine's per-(fi, ri)
        // sink reads just the entries it needs from the borrowed solution.
        std::vector<std::vector<std::size_t>> by_rhs(rhs.size());
        for (std::size_t c = 0; c < channels.size(); ++c)
            by_rhs[channels[c].rhs].push_back(c);
        const auto worker_sink = [&](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
            for (const std::size_t c : by_rhs[ri])
                sink.value(fi, c, sol[channels[c].unknown]);
        };
        const sweep_engine eng(engine_options(cfg));
        sink.grid(grid_hz);
        if constexpr (injections)
            eng.run_injections(snap, grid_hz, rhs, worker_sink);
        else
            eng.run(snap, grid_hz, rhs, worker_sink);
        return {grid_hz, grid_hz.size()};
    }

} // namespace

channel_sweep sweep_channels(const linearized_snapshot& snap, const std::vector<real>& grid_hz,
                             const std::optional<sweep_spec>& band,
                             const std::vector<sweep_engine::injection>& injections,
                             const std::vector<adaptive_channel>& channels,
                             const sweep_config& cfg, const channel_sink& sink)
{
    return sweep(snap, grid_hz, band, injections, channels, cfg, sink);
}

channel_sweep sweep_channels(const linearized_snapshot& snap, const std::vector<real>& grid_hz,
                             const std::optional<sweep_spec>& band,
                             const std::vector<std::vector<cplx>>& rhs_batch,
                             const std::vector<adaptive_channel>& channels,
                             const sweep_config& cfg, const channel_sink& sink)
{
    return sweep(snap, grid_hz, band, rhs_batch, channels, cfg, sink);
}

} // namespace acstab::engine
