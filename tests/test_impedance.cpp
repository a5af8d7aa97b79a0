// Impedance-partition stability workload: partition semantics, the
// Nyquist-like minor-loop verdict, and the golden cross-check against the
// MNA pencil-pole classification on every shipped netlist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/impedance.h"
#include "analysis/pole_zero.h"
#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"
#include "numeric/interpolation.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;

[[nodiscard]] spice::parsed_netlist load(const std::string& name)
{
    return spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/" + name);
}

/// Ground truth: stable iff every pencil pole sits in the left half plane.
[[nodiscard]] bool poles_say_stable(const std::string& netlist)
{
    spice::parsed_netlist net = load(netlist);
    const spice::dc_result op = spice::dc_operating_point(net.ckt);
    const std::vector<analysis::pole> poles = analysis::circuit_poles(net.ckt, op.solution);
    return std::none_of(poles.begin(), poles.end(), analysis::is_right_half_plane);
}

struct workload {
    const char* netlist;
    const char* node;
    std::vector<std::string> source; ///< forced source-side elements
    real fstart;
    real fstop;
};

[[nodiscard]] std::vector<workload> shipped_workloads()
{
    return {
        {"follower.sp", "f_out", {}, 1e5, 1e10},
        {"rlc_tank.sp", "tank", {"l1"}, 1e4, 1e8},
        {"two_pole_loop.sp", "out", {}, 1e2, 1e8},
    };
}

TEST(impedance_partition, follower_splits_into_driver_and_load)
{
    spice::parsed_netlist net = load("follower.sp");
    const analysis::impedance_partition part
        = analysis::partition_at_node(net.ckt, "f_out");
    // The biased transistor side drives; the port/ground shunts load.
    const std::vector<std::string> source{"vdd_supply", "vbias", "rsource", "qf"};
    const std::vector<std::string> load_side{"if_load", "cload"};
    EXPECT_EQ(part.source_devices, source);
    EXPECT_EQ(part.load_devices, load_side);
}

TEST(impedance_partition, forced_elements_resolve_shunt_only_nodes)
{
    // Every tank element shunts the port straight to ground: connectivity
    // cannot split them, so the partition must demand --source...
    spice::parsed_netlist net = load("rlc_tank.sp");
    EXPECT_THROW((void)analysis::partition_at_node(net.ckt, "tank"), analysis_error);
    // ...and honor it when given.
    const analysis::impedance_partition part
        = analysis::partition_at_node(net.ckt, "tank", {"l1"});
    EXPECT_EQ(part.source_devices, std::vector<std::string>{"l1"});
    EXPECT_EQ(part.load_devices, (std::vector<std::string>{"r1", "c1"}));
}

/// A current-controlled source on the far side of the port from its
/// controlling voltage source: f1 at x copies 10x the current vsense
/// carries from the source side.
constexpr const char* cross_port_cccs_netlist = "* CCCS across the partition port\n"
                                                "vs in 0 dc 0 ac 1\n"
                                                "vsense in a 0\n"
                                                "r1 a port 1k\n"
                                                "c1 port 0 1n\n"
                                                "r2 port x 1k\n"
                                                "f1 x 0 vsense 10\n"
                                                "c2 x 0 1n\n"
                                                ".end\n";

/// The partition identity: both sides' snapshots hold the port's
/// gshunt, so 1 / (1/Z_s + 1/Z_l - gshunt) is the full circuit's
/// driving-point impedance at the port, which a unit-current injection
/// sweep of the unpartitioned circuit measures directly.
void expect_sides_recombine_to_full_circuit(spice::parsed_netlist net, const workload& w)
{
    analysis::impedance_options opt;
    opt.fstart = w.fstart;
    opt.fstop = w.fstop;
    opt.points_per_decade = 10;
    opt.source_elements = w.source;
    const analysis::impedance_result res = analysis::analyze_impedance(net.ckt, w.node, opt);

    const std::size_t port = static_cast<std::size_t>(*net.ckt.find_node(w.node));
    spice::dc_options dc;
    dc.gmin = opt.gmin;
    const spice::dc_result op = spice::dc_operating_point(net.ckt, dc);
    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot full(net.ckt, op.solution, sopt);
    const std::vector<real> grid
        = numeric::log_grid(opt.fstart, opt.fstop, opt.points_per_decade);
    const std::vector<engine::sweep_engine::injection> unit{{port, cplx{1.0, 0.0}}};
    std::vector<cplx> z_full(grid.size());
    (void)engine::sweep_channels(
        full, grid, std::nullopt, unit, {{0, port}}, opt,
        {[](const std::vector<real>&) {},
         [&z_full](std::size_t fi, std::size_t, cplx v) { z_full[fi] = v; }});

    ASSERT_EQ(res.freq_hz, grid) << w.netlist;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const cplx z = 1.0 / (1.0 / res.z_source[i] + 1.0 / res.z_load[i] - opt.gshunt);
        EXPECT_LE(std::abs(z - z_full[i]), 1e-9 * std::abs(z_full[i]))
            << w.netlist << " at " << grid[i] << " Hz: sides give " << z << ", full circuit "
            << z_full[i];
    }
}

TEST(impedance_partition, current_controlled_source_stays_with_its_control)
{
    spice::parsed_netlist net = spice::parse_netlist(cross_port_cccs_netlist);
    const analysis::impedance_partition part = analysis::partition_at_node(net.ckt, "port");
    const std::vector<std::string> source{"vs", "vsense", "r1", "r2", "f1", "c2"};
    EXPECT_EQ(part.source_devices, source);
    EXPECT_EQ(part.load_devices, std::vector<std::string>{"c1"});
    // At 1 kHz the full circuit's driving-point impedance is about
    // -111.1 - 0.93j ohm (the gain-10 feedback makes it negative); with
    // f1 cut off from vsense the sides recombined to 999.8 - 12.6j.
    expect_sides_recombine_to_full_circuit(spice::parse_netlist(cross_port_cccs_netlist),
                                           {"cross-port CCCS", "port", {}, 1e2, 1e7});
}

TEST(impedance_partition, sides_recombine_to_the_full_circuit_on_shipped_netlists)
{
    for (const workload& w : shipped_workloads())
        expect_sides_recombine_to_full_circuit(load(w.netlist), w);
}

TEST(impedance_partition, rejects_unknown_nodes_and_elements)
{
    spice::parsed_netlist net = load("follower.sp");
    EXPECT_THROW((void)analysis::partition_at_node(net.ckt, "nope"), analysis_error);
    EXPECT_THROW((void)analysis::partition_at_node(net.ckt, "0"), analysis_error);
    EXPECT_THROW((void)analysis::partition_at_node(net.ckt, "f_out", {"nope"}),
                 analysis_error);
    // A source-forced node has no meaningful driving-point partition.
    EXPECT_THROW((void)analysis::partition_at_node(net.ckt, "vdd"), analysis_error);
}

// The golden cross-check: on every shipped netlist, fixed and adaptive
// grids, 1 and 4 threads, the Nyquist-like impedance-ratio verdict must
// agree with the pencil-pole stability classification.
TEST(impedance_verdict, agrees_with_pole_analysis_on_all_shipped_netlists)
{
    for (const workload& w : shipped_workloads()) {
        const bool expect_stable = poles_say_stable(w.netlist);
        for (const bool adaptive : {false, true}) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                spice::parsed_netlist net = load(w.netlist);
                analysis::impedance_options opt;
                opt.fstart = w.fstart;
                opt.fstop = w.fstop;
                opt.source_elements = w.source;
                opt.adaptive = adaptive;
                opt.threads = threads;
                const analysis::impedance_result res
                    = analysis::analyze_impedance(net.ckt, w.node, opt);
                EXPECT_EQ(res.stable, expect_stable)
                    << w.netlist << " adaptive=" << adaptive << " threads=" << threads;
                EXPECT_EQ(res.encirclements == 0, expect_stable)
                    << w.netlist << " adaptive=" << adaptive << " threads=" << threads;
                EXPECT_GT(res.nyquist_margin, 0.0);
                EXPECT_GT(res.factorizations, 0u);
            }
        }
    }
}

TEST(impedance_verdict, unstable_three_pole_loop_encircles_minus_one)
{
    // The shipped unstable loop: the criterion must flag it, with the
    // encirclement count matching its RHP pole pair.
    ASSERT_FALSE(poles_say_stable("three_pole_loop.sp"));
    for (const bool adaptive : {false, true}) {
        spice::parsed_netlist net = load("three_pole_loop.sp");
        analysis::impedance_options opt;
        opt.fstart = 1e2;
        opt.fstop = 1e8;
        opt.adaptive = adaptive;
        const analysis::impedance_result res
            = analysis::analyze_impedance(net.ckt, "out", opt);
        EXPECT_FALSE(res.stable) << "adaptive=" << adaptive;
        EXPECT_EQ(res.encirclements, 2) << "adaptive=" << adaptive;
    }
}

TEST(impedance_verdict, threads_do_not_change_results)
{
    spice::parsed_netlist net1 = load("follower.sp");
    spice::parsed_netlist net4 = load("follower.sp");
    analysis::impedance_options opt;
    opt.fstart = 1e5;
    opt.fstop = 1e10;
    analysis::impedance_options opt4 = opt;
    opt4.threads = 4;
    const analysis::impedance_result r1 = analysis::analyze_impedance(net1.ckt, "f_out", opt);
    const analysis::impedance_result r4
        = analysis::analyze_impedance(net4.ckt, "f_out", opt4);
    ASSERT_EQ(r1.freq_hz.size(), r4.freq_hz.size());
    for (std::size_t i = 0; i < r1.freq_hz.size(); ++i) {
        EXPECT_EQ(r1.freq_hz[i], r4.freq_hz[i]);
        EXPECT_EQ(r1.minor_loop[i], r4.minor_loop[i]);
    }
}

TEST(impedance_adaptive, matches_fixed_grid_verdict_and_margins_cheaply)
{
    spice::parsed_netlist fixed_net = load("follower.sp");
    spice::parsed_netlist adapt_net = load("follower.sp");
    analysis::impedance_options opt;
    opt.fstart = 1e5;
    opt.fstop = 1e10;
    analysis::impedance_options aopt = opt;
    aopt.adaptive = true;
    const analysis::impedance_result fixed
        = analysis::analyze_impedance(fixed_net.ckt, "f_out", opt);
    const analysis::impedance_result adaptive
        = analysis::analyze_impedance(adapt_net.ckt, "f_out", aopt);

    EXPECT_EQ(adaptive.stable, fixed.stable);
    ASSERT_TRUE(fixed.margins.has_unity_crossing);
    ASSERT_TRUE(adaptive.margins.has_unity_crossing);
    EXPECT_NEAR(adaptive.margins.phase_margin_deg, fixed.margins.phase_margin_deg, 0.5);
    EXPECT_NEAR(adaptive.nyquist_margin, fixed.nyquist_margin,
                0.02 * fixed.nyquist_margin);
    // The whole point: far fewer factorizations than the fixed grid.
    EXPECT_LE(3 * adaptive.factorizations, fixed.factorizations);
}

TEST(impedance_adaptive, rlc_pole_estimate_matches_analytic_tank)
{
    // Z_s = sL forced source against Z_l = R || 1/sC: the closed
    // interconnection is the tank itself, fn = 1 MHz, zeta = 0.2; the
    // AAA model of L_m must hand back that pole pair.
    spice::parsed_netlist net = load("rlc_tank.sp");
    analysis::impedance_options opt;
    opt.fstart = 1e4;
    opt.fstop = 1e8;
    opt.adaptive = true;
    opt.source_elements = {"l1"};
    const analysis::impedance_result res = analysis::analyze_impedance(net.ckt, "tank", opt);
    ASSERT_TRUE(res.has_model);
    ASSERT_FALSE(res.closed_loop_poles.empty());
    const analysis::pole& p = res.closed_loop_poles.front();
    EXPECT_NEAR(p.freq_hz, 1e6, 1e4);
    EXPECT_NEAR(p.zeta, 0.2, 0.005);
    EXPECT_TRUE(p.is_complex);
}

TEST(impedance_adaptive, unstable_pole_estimate_lands_in_right_half_plane)
{
    spice::parsed_netlist net = load("three_pole_loop.sp");
    analysis::impedance_options opt;
    opt.fstart = 1e2;
    opt.fstop = 1e8;
    opt.adaptive = true;
    const analysis::impedance_result res = analysis::analyze_impedance(net.ckt, "out", opt);
    ASSERT_TRUE(res.has_model);
    const bool any_rhp = std::any_of(res.closed_loop_poles.begin(),
                                     res.closed_loop_poles.end(),
                                     [](const analysis::pole& p) { return p.zeta < 0.0; });
    EXPECT_TRUE(any_rhp);
}

} // namespace
