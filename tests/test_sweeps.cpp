// Parameterized re-analysis (in-tool sweeps).
#include <gtest/gtest.h>

#include "circuits/bias.h"
#include "circuits/rlc.h"
#include "core/sweeps.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"

namespace {

using namespace acstab;

/// A single-axis grid over `values` whose factory hands each point's
/// value to `build`.
template <class Build>
std::vector<core::grid_point_result> sweep_values(const std::string& axis,
                                                  const std::vector<real>& values,
                                                  const Build& build,
                                                  const core::stability_options& opt = {})
{
    core::param_grid grid;
    grid.axes = {{axis, values}};
    return core::sweep_stability_grid(
        [&build, &axis](spice::circuit& c, const core::grid_point& pt) {
            return build(c, pt.overrides.at(axis));
        },
        grid, opt);
}

TEST(sweeps, tank_damping_sweep_tracks_parameter)
{
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.sweep.points_per_decade = 50;
    const std::vector<real> zetas{0.1, 0.2, 0.4};
    const auto points = sweep_values(
        "zeta", zetas,
        [](spice::circuit& c, real zeta) {
            circuits::add_parallel_rlc_tank(c, "tank", zeta, 1e6);
            return std::string("tank");
        },
        opt);
    ASSERT_EQ(points.size(), 3u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(points[i].status, core::point_status::ok);
        EXPECT_EQ(points[i].point.overrides.at("zeta"), zetas[i]);
        ASSERT_TRUE(points[i].node.has_peak);
        EXPECT_NEAR(points[i].node.zeta, zetas[i], 0.15 * zetas[i]);
        EXPECT_NEAR(points[i].node.dominant.freq_hz, 1e6, 0.05e6);
    }
}

TEST(sweeps, bias_temperature_sweep_keeps_loop_in_band)
{
    // The zero-TC reference's local loop must stay in the tens of MHz and
    // under-damped across the industrial temperature range.
    const auto points
        = sweep_values("temp", {-40.0, 27.0, 125.0}, [](spice::circuit& c, real temp) {
              circuits::bias_params bp;
              bp.temp_celsius = temp;
              const circuits::bias_nodes n = circuits::build_standalone_bias(c, bp);
              return n.rail;
          });
    for (const auto& p : points) {
        const real temp = p.point.overrides.at("temp");
        ASSERT_EQ(p.status, core::point_status::ok) << "T=" << temp;
        ASSERT_TRUE(p.node.has_peak) << "T=" << temp;
        EXPECT_GT(p.node.dominant.freq_hz, 2e7) << "T=" << temp;
        EXPECT_LT(p.node.dominant.freq_hz, 1.2e8) << "T=" << temp;
        EXPECT_LT(p.node.zeta, 0.7) << "T=" << temp;
    }
}

TEST(sweeps, reports_non_convergence_instead_of_throwing)
{
    const auto points = sweep_values("p", {1.0}, [](spice::circuit& c, real) {
        // Pathological: vsource loop with an inductor -> singular DC.
        const auto a = c.node("a");
        c.add<spice::vsource>("v1", a, spice::ground_node,
                              spice::waveform_spec::make_ac(0.0, 1.0));
        c.add<spice::inductor>("l1", a, spice::ground_node, 1e-3);
        return std::string("a");
    });
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].status, core::point_status::dc_failed);
    EXPECT_FALSE(points[0].error.empty());
    EXPECT_EQ(points[0].node.node, "a");
    EXPECT_FALSE(points[0].node.has_peak);
}

TEST(sweeps, records_analysis_errors_per_point_instead_of_throwing)
{
    // One point of the sweep is pathological in a way that is NOT a DC
    // convergence failure (a zero-valued resistor is rejected when the
    // device is constructed); it must be recorded, not kill the sweep.
    const auto points = sweep_values("r", {1.0, 0.0, 2.0}, [](spice::circuit& c, real r) {
        circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
        if (r <= 0.0) {
            c.remove_device("r_tank");
            c.add<spice::resistor>("r_tank", *c.find_node("tank"), spice::ground_node, r);
        }
        return std::string("tank");
    });
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].status, core::point_status::ok);
    EXPECT_EQ(points[1].status, core::point_status::analysis_failed);
    EXPECT_FALSE(points[1].error.empty());
    EXPECT_FALSE(points[1].node.has_peak);
    EXPECT_EQ(points[2].status, core::point_status::ok);
    EXPECT_TRUE(points[2].node.has_peak);
}

TEST(sweeps, grid_runner_slices_match_full_run)
{
    core::param_grid grid;
    grid.axes = {{"zeta", {0.1, 0.2, 0.3, 0.4, 0.5}}};
    const core::grid_circuit_factory factory
        = [](spice::circuit& c, const core::grid_point& pt) {
              circuits::add_parallel_rlc_tank(c, "tank", pt.overrides.at("zeta"), 1e6);
              return std::string("tank");
          };
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;

    const auto full = core::sweep_stability_grid(factory, grid, opt);
    ASSERT_EQ(full.size(), 5u);
    const auto tail = core::sweep_stability_grid(factory, grid, 3, 5, opt);
    ASSERT_EQ(tail.size(), 2u);
    for (std::size_t i = 0; i < tail.size(); ++i) {
        EXPECT_EQ(tail[i].point.index, 3 + i);
        ASSERT_EQ(tail[i].status, core::point_status::ok);
        EXPECT_DOUBLE_EQ(tail[i].node.zeta, full[3 + i].node.zeta);
    }
    EXPECT_THROW((void)core::sweep_stability_grid(factory, grid, 4, 6, opt),
                 analysis_error);
}

TEST(sweeps, template_overload_rebuilds_from_netlist_text)
{
    core::circuit_template tmpl;
    tmpl.text = R"(* tank template
.param rval=397.887
r1 tank 0 {rval}
l1 tank 0 25.3303u
c1 tank 0 1n
.end
)";
    core::param_grid grid;
    grid.axes = {{"rval", {198.94, 397.887}}}; // zeta = 0.4, 0.2
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    const auto points = core::sweep_stability_grid(tmpl, "tank", grid, opt);
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[0].status, core::point_status::ok);
    ASSERT_EQ(points[1].status, core::point_status::ok);
    EXPECT_NEAR(points[0].node.zeta, 0.4, 0.06);
    EXPECT_NEAR(points[1].node.zeta, 0.2, 0.03);
}

} // namespace
