// engine::sweep_channels, the one sweep entry point: on the fixed grid it
// must hand on exactly what the sweep engine's sink sees, on the adaptive
// grid exactly what adaptive_sweep returns, with the output grid first.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "circuits/opamp.h"
#include "circuits/rlc.h"
#include "common/error.h"
#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"
#include "engine/sweep_engine.h"
#include "numeric/interpolation.h"
#include "spice/dc_analysis.h"
#include "spice/devices/sources.h"

namespace {

using namespace acstab;

using injections = std::vector<engine::sweep_engine::injection>;
using dense_rhs = std::vector<std::vector<cplx>>;
using channels = std::vector<engine::adaptive_channel>;

constexpr engine::sweep_spec band{1e3, 1e9, 20};

/// What a sweep_channels() sink received.
struct received {
    std::vector<real> grid;
    std::vector<std::vector<cplx>> values; ///< [channel][freq index]
    bool value_before_grid = false;
    std::size_t value_calls = 0;
    engine::channel_sweep result;
};

template <class Rhs>
received sweep(const engine::linearized_snapshot& snap, const std::optional<engine::sweep_spec>& b,
               const Rhs& rhs, const channels& chans, const engine::sweep_config& cfg)
{
    received got;
    std::atomic<bool> have_grid{false};
    std::atomic<bool> early{false};
    std::atomic<std::size_t> calls{0};
    got.result = engine::sweep_channels(
        snap, band.frequencies(), b, rhs, chans, cfg,
        {[&](const std::vector<real>& grid) {
             got.grid = grid;
             got.values.assign(chans.size(), std::vector<cplx>(grid.size()));
             have_grid = true;
         },
         [&](std::size_t fi, std::size_t c, cplx v) {
             ++calls;
             if (!have_grid)
                 early = true;
             else
                 got.values[c][fi] = v;
         }});
    got.value_before_grid = early;
    got.value_calls = calls;
    return got;
}

/// The sweep engine's own sink, read at each channel's entry.
template <class Rhs>
std::vector<std::vector<cplx>> engine_values(const engine::linearized_snapshot& snap,
                                             const Rhs& rhs, const channels& chans,
                                             std::size_t threads)
{
    const std::vector<real> freqs = band.frequencies();
    std::vector<std::vector<cplx>> out(chans.size(), std::vector<cplx>(freqs.size()));
    const auto sink = [&](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
        for (std::size_t c = 0; c < chans.size(); ++c)
            if (chans[c].rhs == ri)
                out[c][fi] = sol[chans[c].unknown];
    };
    engine::sweep_engine_options eopt;
    eopt.threads = threads;
    const engine::sweep_engine eng(eopt);
    if constexpr (std::is_same_v<Rhs, injections>)
        eng.run_injections(snap, freqs, rhs, sink);
    else
        eng.run(snap, freqs, rhs, sink);
    return out;
}

template <class Rhs>
engine::adaptive_sweep_result adaptive_values(const engine::linearized_snapshot& snap,
                                              const engine::sweep_spec& b, const Rhs& rhs,
                                              const channels& chans, std::size_t threads)
{
    engine::adaptive_sweep_options aopt;
    aopt.fstart = b.fstart;
    aopt.fstop = b.fstop;
    aopt.output_points_per_decade = b.points_per_decade;
    aopt.engine.threads = threads;
    const engine::adaptive_sweep driver(aopt);
    if constexpr (std::is_same_v<Rhs, injections>)
        return driver.run_injections(snap, rhs, chans);
    else
        return driver.run(snap, rhs, chans);
}

/// One right-hand-side set with its channels and adaptive band (absent:
/// derived from the grid, as ac, Bode and loop gain do).
template <class Rhs>
struct sweep_case {
    const char* name;
    std::unique_ptr<const engine::linearized_snapshot> snap;
    Rhs rhs;
    channels chans;
    std::optional<engine::sweep_spec> band;
};

/// All-nodes batch: one unit injection per node of the op-amp buffer,
/// each node observing its own response.
sweep_case<injections> all_nodes_case(spice::circuit& c)
{
    (void)circuits::build_opamp_buffer(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    sweep_case<injections> sc{
        "all-nodes", std::make_unique<engine::linearized_snapshot>(c, op.solution, sopt), {},
        {}, band};
    const std::vector<bool> forced = c.source_forced_nodes();
    for (std::size_t k = 0; k < c.node_count(); ++k) {
        if (forced[k])
            continue;
        sc.chans.push_back({sc.rhs.size(), k});
        sc.rhs.push_back({k, cplx{1.0, 0.0}});
    }
    return sc;
}

/// Loop gain's pair: the probe's voltage injection observed at both of
/// its nodes, the current injection observed in the probe branch.
sweep_case<injections> loop_gain_case(spice::circuit& c)
{
    const circuits::two_pole_loop_nodes nodes = circuits::build_two_pole_loop(c, {});
    auto* probe = dynamic_cast<spice::vsource*>(c.find_device(nodes.probe));
    c.finalize();
    const auto x = static_cast<std::size_t>(probe->nodes()[0]);
    const auto y = static_cast<std::size_t>(probe->nodes()[1]);
    const auto branch = static_cast<std::size_t>(probe->branch());
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    return {"loop-gain",
            std::make_unique<engine::linearized_snapshot>(c, op.solution, sopt),
            {{branch, cplx{1.0, 0.0}}, {y, cplx{1.0, 0.0}}},
            {{0, x}, {0, y}, {1, branch}},
            std::nullopt};
}

/// spice::ac_sweep's shape: the circuit's own stimulus as one dense
/// right-hand side, every unknown observed.
sweep_case<dense_rhs> ac_case(spice::circuit& c)
{
    (void)circuits::build_opamp_open_loop(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    auto snap = std::make_unique<engine::linearized_snapshot>(c, op.solution,
                                                              engine::snapshot_options{});
    channels chans(snap->size());
    for (std::size_t k = 0; k < snap->size(); ++k)
        chans[k] = {0, k};
    dense_rhs rhs{snap->stimulus_rhs()};
    return {"ac", std::move(snap), std::move(rhs), std::move(chans), std::nullopt};
}

template <class Rhs>
void expect_fixed_matches_engine(const sweep_case<Rhs>& sc)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        engine::sweep_config cfg;
        cfg.threads = threads;
        const received got = sweep(*sc.snap, sc.band, sc.rhs, sc.chans, cfg);
        EXPECT_FALSE(got.value_before_grid) << sc.name;
        EXPECT_EQ(got.grid, band.frequencies()) << sc.name;
        EXPECT_EQ(got.result.freq_hz, got.grid) << sc.name;
        EXPECT_EQ(got.result.factorizations, got.grid.size()) << sc.name;
        EXPECT_EQ(got.value_calls, sc.chans.size() * got.grid.size()) << sc.name;
        // Bit for bit: the entry point only forwards the engine's values.
        EXPECT_EQ(got.values, engine_values(*sc.snap, sc.rhs, sc.chans, threads))
            << sc.name << " threads=" << threads;
    }
}

template <class Rhs>
void expect_adaptive_matches_driver(const sweep_case<Rhs>& sc)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        engine::sweep_config cfg;
        cfg.threads = threads;
        cfg.adaptive = true;
        const received got = sweep(*sc.snap, sc.band, sc.rhs, sc.chans, cfg);
        const engine::adaptive_sweep_result ref = adaptive_values(
            *sc.snap, sc.band ? *sc.band : engine::grid_band(band.frequencies()), sc.rhs,
            sc.chans, threads);
        EXPECT_FALSE(got.value_before_grid) << sc.name;
        EXPECT_EQ(got.grid, ref.freq_hz) << sc.name;
        EXPECT_EQ(got.result.freq_hz, ref.freq_hz) << sc.name;
        EXPECT_EQ(got.result.factorizations, ref.factorizations) << sc.name;
        EXPECT_LT(got.result.factorizations, got.grid.size()) << sc.name;
        EXPECT_EQ(got.value_calls, sc.chans.size() * got.grid.size()) << sc.name;
        EXPECT_EQ(got.values, ref.values) << sc.name << " threads=" << threads;
    }
}

TEST(sweep_channels, fixed_grid_forwards_engine_values_bit_for_bit)
{
    spice::circuit a, b, c;
    expect_fixed_matches_engine(all_nodes_case(a));
    expect_fixed_matches_engine(loop_gain_case(b));
    expect_fixed_matches_engine(ac_case(c));
}

TEST(sweep_channels, adaptive_grid_forwards_driver_values_bit_for_bit)
{
    spice::circuit a, b, c;
    expect_adaptive_matches_driver(all_nodes_case(a));
    expect_adaptive_matches_driver(loop_gain_case(b));
    expect_adaptive_matches_driver(ac_case(c));
}

TEST(sweep_channels, no_channels_runs_the_fixed_grid)
{
    spice::circuit c;
    const sweep_case<injections> sc = loop_gain_case(c);
    engine::sweep_config cfg;
    cfg.adaptive = true;
    const received got = sweep(*sc.snap, sc.band, sc.rhs, {}, cfg);
    EXPECT_EQ(got.grid, band.frequencies());
    EXPECT_EQ(got.result.factorizations, got.grid.size());
    EXPECT_EQ(got.value_calls, 0u);
}

TEST(sweep_channels, channel_out_of_range_is_rejected_on_both_grids)
{
    spice::circuit a, c;
    const sweep_case<injections> inj = loop_gain_case(a);
    const sweep_case<dense_rhs> ac = ac_case(c);
    for (const bool adaptive : {false, true}) {
        engine::sweep_config cfg;
        cfg.adaptive = adaptive;
        EXPECT_THROW((void)sweep(*inj.snap, inj.band, inj.rhs, {{2, 0}}, cfg), analysis_error)
            << "rhs, adaptive=" << adaptive;
        EXPECT_THROW((void)sweep(*inj.snap, inj.band, inj.rhs, {{0, inj.snap->size()}}, cfg),
                     analysis_error)
            << "unknown, adaptive=" << adaptive;
        EXPECT_THROW((void)sweep(*ac.snap, ac.band, ac.rhs, {{1, 0}}, cfg), analysis_error)
            << "dense rhs, adaptive=" << adaptive;
        EXPECT_THROW((void)sweep(*ac.snap, ac.band, ac.rhs, {{0, ac.snap->size()}}, cfg),
                     analysis_error)
            << "dense unknown, adaptive=" << adaptive;
    }
}

TEST(sweep_channels, grid_band_recovers_a_density_that_rebuilds_the_grid)
{
    // Whole decades give the density back exactly; any band gives one that
    // log_grid maps to the very same grid.
    EXPECT_EQ(engine::grid_band(numeric::log_grid(1e3, 1e9, 40)).points_per_decade, 40u);
    EXPECT_EQ(engine::grid_band(numeric::log_grid(1e4, 1e8, 50)).points_per_decade, 50u);
    for (const real fstop : {3e8, 2.5e6, 1.7e9})
        for (const std::size_t ppd : {std::size_t{7}, std::size_t{20}, std::size_t{40}}) {
            const std::vector<real> grid = numeric::log_grid(1e3, fstop, ppd);
            const engine::sweep_spec b = engine::grid_band(grid);
            EXPECT_EQ(b.fstart, grid.front());
            EXPECT_EQ(b.fstop, grid.back());
            EXPECT_EQ(numeric::log_grid(b.fstart, b.fstop, b.points_per_decade), grid)
                << "fstop=" << fstop << " ppd=" << ppd;
        }
    EXPECT_THROW((void)engine::grid_band({1e3}), analysis_error);
    EXPECT_THROW((void)engine::grid_band({1e3, 1e3}), analysis_error);
}

} // namespace
