// The adaptive frequency-grid engine: AAA rational fits must recover the
// analytic second-order prototype from a handful of samples, and the
// adaptive sweep must reproduce the dense fixed-grid reference — same
// peaks, margins within 0.5 degrees, natural frequencies within 1% — at
// a fraction (<= 1/3 on the acceptance workload) of the factorizations,
// serial and threaded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <string>
#include <vector>

#include "analysis/loop_gain.h"
#include "circuits/rlc.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "core/second_order.h"
#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "gen/netlist_gen.h"
#include "numeric/aaa.h"
#include "numeric/interpolation.h"
#include "spice/ac_analysis.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;

std::string netlist(const char* name)
{
    return std::string(ACSTAB_NETLIST_DIR) + "/" + name;
}

// ---- AAA rational fit ------------------------------------------------------

TEST(aaa_fit, recovers_second_order_prototype_from_12_samples)
{
    // The closed-form prototype behind the whole method (core/second_order):
    // T(j 2 pi f) sampled at only 12 log-spaced points over 6 decades must
    // come back as a model accurate to < 0.1% everywhere in the band.
    const auto t = numeric::rational::second_order_lowpass(0.3, to_omega(1e6));
    const std::vector<real> xs = numeric::log_space(1e3, 1e9, 12);
    std::vector<std::vector<cplx>> data(1, std::vector<cplx>(xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i)
        data[0][i] = t(cplx{0.0, to_omega(xs[i])});

    const numeric::aaa_model model = numeric::aaa_fit(xs, data);
    EXPECT_LE(model.support_count(), 12u);

    const std::vector<real> dense = numeric::log_space(1e3, 1e9, 600);
    for (const real f : dense) {
        const cplx exact = t(cplx{0.0, to_omega(f)});
        const cplx fitted = model.eval(0, f);
        EXPECT_LT(std::abs(fitted - exact), 1e-3 * std::max(std::abs(exact), real{1e-12}))
            << "f=" << f;
    }
}

TEST(aaa_fit, seed_support_is_adopted_and_refit_stays_accurate)
{
    // Simulate the adaptive driver's per-round refit: fit once, then
    // refit the same data warm-started from the first fit's support set.
    // Every seed must be adopted (that is the point: their per-step
    // weight eigen-solves are replaced by one batch solve) and the warm
    // model must stay as accurate as the cold one.
    const auto t = numeric::rational::second_order_lowpass(0.3, to_omega(1e6));
    const std::vector<real> xs = numeric::log_space(1e3, 1e9, 24);
    std::vector<std::vector<cplx>> data(1, std::vector<cplx>(xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i)
        data[0][i] = t(cplx{0.0, to_omega(xs[i])});

    const numeric::aaa_model cold = numeric::aaa_fit(xs, data);
    numeric::aaa_options warm_opt;
    warm_opt.seed_support.assign(cold.support_samples().begin(),
                                 cold.support_samples().end());
    // Garbage seeds (out of range, duplicate) must be ignored, not fatal.
    warm_opt.seed_support.push_back(9999);
    warm_opt.seed_support.push_back(cold.support_samples().front());
    const numeric::aaa_model warm = numeric::aaa_fit(xs, data, warm_opt);

    for (const std::size_t idx : cold.support_samples()) {
        const auto& adopted = warm.support_samples();
        EXPECT_NE(std::find(adopted.begin(), adopted.end(), idx), adopted.end())
            << "seed sample " << idx << " was not adopted";
    }
    for (const real f : numeric::log_space(1e3, 1e9, 200)) {
        const cplx exact = t(cplx{0.0, to_omega(f)});
        EXPECT_LT(std::abs(warm.eval(0, f) - exact),
                  1e-3 * std::max(std::abs(exact), real{1e-12}))
            << "f=" << f;
    }
}

TEST(aaa_fit, shared_support_fits_multiple_channels)
{
    // Two different responses (second-order pole pair + a real-pole roll-
    // off) through ONE support/weight set; both must evaluate accurately.
    const auto t1 = numeric::rational::second_order_lowpass(0.25, to_omega(1e5));
    const std::vector<real> xs = numeric::log_space(1e3, 1e8, 28);
    std::vector<std::vector<cplx>> data(2, std::vector<cplx>(xs.size()));
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const cplx s{0.0, to_omega(xs[i])};
        data[0][i] = t1(s);
        data[1][i] = cplx{1.0, 0.0} / (cplx{1.0, 0.0} + s / cplx{to_omega(3e5), 0.0});
    }
    const numeric::aaa_model model = numeric::aaa_fit(xs, data);
    for (const real f : numeric::log_space(1e3, 1e8, 150)) {
        const cplx s{0.0, to_omega(f)};
        EXPECT_LT(std::abs(model.eval(0, f) - t1(s)), 1e-5 * std::max(std::abs(t1(s)), real{1e-12}));
        const cplx e1 = cplx{1.0, 0.0} / (cplx{1.0, 0.0} + s / cplx{to_omega(3e5), 0.0});
        EXPECT_LT(std::abs(model.eval(1, f) - e1), 1e-5 * std::abs(e1));
    }
}

TEST(aaa_fit, validates_inputs)
{
    const std::vector<real> xs{1.0, 2.0};
    EXPECT_THROW((void)numeric::aaa_fit(xs, {{cplx{}, cplx{}}}), numeric_error); // too short
    const std::vector<real> dup{1.0, 2.0, 2.0, 3.0};
    EXPECT_THROW((void)numeric::aaa_fit(dup, {std::vector<cplx>(4)}), numeric_error);
    const std::vector<real> ok{1.0, 2.0, 3.0, 4.0};
    EXPECT_THROW((void)numeric::aaa_fit(ok, {std::vector<cplx>(3)}), numeric_error); // mismatch
    EXPECT_THROW((void)numeric::aaa_fit(ok, {}), numeric_error); // no components
}

// ---- adaptive vs dense-reference equivalence -------------------------------

core::stability_options follower_options(bool adaptive, std::size_t threads)
{
    core::stability_options opt;
    opt.sweep.fstart = 1e5;
    opt.sweep.fstop = 1e10;
    opt.sweep.points_per_decade = 50; // the netlist's .stability card density
    opt.threads = threads;
    opt.adaptive = adaptive;
    return opt;
}

/// All-nodes stability always sweeps the fixed grid: the adaptive driver
/// would keep every node's full solution per sample and confirm only when
/// every node's channel agrees, so it never beat the fixed grid. With
/// `adaptive` set the report is the fixed grid's, byte for byte.
TEST(adaptive_sweep, all_nodes_report_with_adaptive_is_the_fixed_grids)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist("follower.sp"));
    core::stability_analyzer fixed_an(net.ckt, follower_options(false, 4));
    const core::stability_report fixed = fixed_an.analyze_all_nodes();
    ASSERT_FALSE(fixed.nodes.empty());
    EXPECT_EQ(fixed.factorizations, follower_options(false, 4).sweep.frequencies().size());

    core::stability_analyzer an(net.ckt, follower_options(true, 4));
    const core::stability_report adaptive = an.analyze_all_nodes();
    EXPECT_EQ(adaptive.factorizations, fixed.factorizations);
    EXPECT_EQ(core::format_csv(adaptive), core::format_csv(fixed));
    ASSERT_EQ(adaptive.nodes.size(), fixed.nodes.size());
    for (std::size_t i = 0; i < fixed.nodes.size(); ++i) {
        EXPECT_EQ(adaptive.nodes[i].node, fixed.nodes[i].node);
        EXPECT_EQ(adaptive.nodes[i].plot.magnitude, fixed.nodes[i].plot.magnitude)
            << fixed.nodes[i].node;
    }
}

TEST(adaptive_sweep, single_node_rlc_tank_matches_analytic_damping)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist("rlc_tank.sp"));
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.adaptive = true;
    core::stability_analyzer an(net.ckt, opt);
    const core::node_stability ns = an.analyze_node("tank");
    ASSERT_TRUE(ns.has_peak);
    EXPECT_NEAR(ns.zeta, 0.2, 0.01);
    EXPECT_NEAR(ns.dominant.freq_hz, 1e6, 2e4);
}

TEST(adaptive_sweep, loop_gain_margins_match_fixed_grid)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist("two_pole_loop.sp"));
    const std::vector<real> freqs = numeric::log_grid(1e2, 1e8, 40);

    analysis::loop_gain_options fixed;
    const analysis::loop_gain_result ref
        = analysis::measure_loop_gain(net.ckt, "vprobe", freqs, fixed);
    ASSERT_TRUE(ref.margins.has_unity_crossing);
    EXPECT_EQ(ref.factorizations, freqs.size());

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        analysis::loop_gain_options opt;
        opt.adaptive = true;
        opt.threads = threads;
        const analysis::loop_gain_result lg
            = analysis::measure_loop_gain(net.ckt, "vprobe", freqs, opt);
        ASSERT_TRUE(lg.margins.has_unity_crossing) << "threads=" << threads;
        EXPECT_LE(3 * lg.factorizations, ref.factorizations);
        EXPECT_NEAR(lg.margins.phase_margin_deg, ref.margins.phase_margin_deg, 0.5);
        EXPECT_NEAR(lg.margins.unity_freq_hz, ref.margins.unity_freq_hz,
                    0.01 * ref.margins.unity_freq_hz);
    }
}

TEST(adaptive_sweep, non_decade_band_output_contains_every_fixed_grid_point)
{
    // 1e3..3e8 is 8.48 decades: the density read back from the realized
    // grid used to come out as 41/decade, so the adaptive output held only
    // a few of the fixed grid's frequencies.
    const std::vector<real> freqs = numeric::log_grid(1e3, 3e8, 40);
    const auto missing = [&freqs](const std::vector<real>& out) {
        std::size_t n = 0;
        for (const real f : freqs)
            n += std::none_of(out.begin(), out.end(),
                              [f](real g) { return std::fabs(g - f) <= 1e-9 * f; });
        return n;
    };

    spice::parsed_netlist loop = spice::parse_netlist_file(netlist("two_pole_loop.sp"));
    const spice::dc_result op = spice::dc_operating_point(loop.ckt);
    spice::ac_options aopt;
    aopt.adaptive = true;
    const spice::ac_result ac = spice::ac_sweep(loop.ckt, freqs, op.solution, aopt);
    EXPECT_EQ(missing(ac.freq_hz), 0u) << "of " << freqs.size();

    analysis::loop_gain_options lopt;
    lopt.adaptive = true;
    const analysis::loop_gain_result lg
        = analysis::measure_loop_gain(loop.ckt, "vprobe", freqs, lopt);
    EXPECT_EQ(missing(lg.freq_hz), 0u) << "of " << freqs.size();
}

// ---- driver-level behavior -------------------------------------------------

TEST(adaptive_sweep, solved_points_are_subset_and_model_fills_dense_grid)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);

    engine::adaptive_sweep_options aopt;
    aopt.fstart = 1e4;
    aopt.fstop = 1e8;
    aopt.output_points_per_decade = 40;
    const engine::adaptive_sweep eng(aopt);
    const auto node = c.find_node("tank");
    ASSERT_TRUE(node.has_value());
    const std::size_t k = static_cast<std::size_t>(*node);
    const engine::adaptive_sweep_result res
        = eng.run_injections(snap, {{k, cplx{1.0, 0.0}}}, {{0, k}});

    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.factorizations, res.solved_freq_hz.size());
    // The output grid is the fixed grid, and every solved frequency is one
    // of its points.
    EXPECT_EQ(res.freq_hz, numeric::log_grid(1e4, 1e8, 40, 8));
    for (const real f : res.solved_freq_hz)
        EXPECT_NE(std::find(res.freq_hz.begin(), res.freq_hz.end(), f), res.freq_hz.end());
    ASSERT_EQ(res.values.size(), 1u);
    ASSERT_EQ(res.values[0].size(), res.freq_hz.size());
    EXPECT_LT(res.solved_freq_hz.size(), res.freq_hz.size() / 3);
}

TEST(adaptive_sweep, zero_rhs_converges_at_anchor_cost)
{
    // A zero AC stimulus (all-zero right-hand side) must come back as
    // exact zeros after only the anchor solves — not degrade into a 0/0
    // residual that flags every candidate until the budget is gone.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.3, 1e6);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);

    const engine::adaptive_sweep eng;
    const engine::adaptive_sweep_result res
        = eng.run(snap, {std::vector<cplx>(snap.size(), cplx{})}, {{0, 0}});
    EXPECT_TRUE(res.converged);
    const engine::adaptive_sweep_options& aopt = eng.options();
    EXPECT_EQ(res.factorizations,
              numeric::log_grid(aopt.fstart, aopt.fstop, aopt.anchors_per_decade, 8).size());
    for (const cplx& v : res.values[0])
        EXPECT_EQ(v, cplx{});
}

/// A single-node adaptive sweep of `port` on the CLI's default band,
/// driven directly.
engine::adaptive_sweep_result cli_band_sweep(spice::circuit& c, const std::string& port,
                                             real fit_tol = 1e-6)
{
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    engine::adaptive_sweep_options aopt;
    aopt.fstart = 1e3;
    aopt.fstop = 1e9;
    aopt.output_points_per_decade = 50;
    aopt.fit_tol = fit_tol;
    const std::size_t k = static_cast<std::size_t>(*c.find_node(port));
    return engine::adaptive_sweep(aopt).run_injections(snap, {{k, cplx{1.0, 0.0}}}, {{0, k}});
}

/// Distributed RC responses have a high visible order, so refinement that
/// is not confined to the grid overspends on them. A sweep of such a port
/// factors at most the grid's points, emits exactly the grid, and keeps
/// the accuracy contract against the fixed sweep.
TEST(adaptive_sweep, gen_ladder_and_mesh_ports_stay_within_the_fixed_grid)
{
    const std::vector<real> grid = numeric::log_grid(1e3, 1e9, 50, 8);
    ASSERT_EQ(grid.size(), 301u);
    gen::gen_options g;
    g.size = 2000;
    const struct {
        std::string text;
        const char* port;
    } cases[] = {{gen::ladder_netlist(g), "n1000"}, {gen::rcmesh_netlist(g), "n22_22"}};
    for (const auto& cs : cases) {
        spice::parsed_netlist net = spice::parse_netlist(cs.text);
        const engine::adaptive_sweep_result res = cli_band_sweep(net.ckt, cs.port);
        EXPECT_LE(res.factorizations, grid.size()) << cs.port;
        EXPECT_EQ(res.freq_hz, grid) << cs.port;

        core::stability_options opt;
        opt.sweep = {1e3, 1e9, 50};
        core::stability_analyzer fixed_an(net.ckt, opt);
        const core::node_stability fixed = fixed_an.analyze_node(cs.port);
        opt.adaptive = true;
        core::stability_analyzer adaptive_an(net.ckt, opt);
        const core::node_stability adaptive = adaptive_an.analyze_node(cs.port);
        ASSERT_TRUE(fixed.has_peak && adaptive.has_peak) << cs.port;
        EXPECT_NEAR(adaptive.dominant.freq_hz, fixed.dominant.freq_hz,
                    0.01 * fixed.dominant.freq_hz)
            << cs.port;
        EXPECT_NEAR(adaptive.phase_margin_est_deg, fixed.phase_margin_est_deg, 0.5) << cs.port;
    }
}

TEST(adaptive_sweep, disagreeing_batches_do_not_end_refinement)
{
    // No rational model predicts a 200-section ladder to within 1e-300 of
    // the solved values, so every solved batch disagrees with its
    // predictions: refinement must go on until the grid is exhausted, and
    // stop there with exact values.
    gen::gen_options g;
    g.size = 200;
    spice::parsed_netlist net = spice::parse_netlist(gen::ladder_netlist(g));
    const engine::adaptive_sweep_result res = cli_band_sweep(net.ckt, "n100", 1e-300);
    EXPECT_EQ(res.freq_hz, numeric::log_grid(1e3, 1e9, 50, 8));
    EXPECT_EQ(res.factorizations, res.freq_hz.size());
    EXPECT_EQ(res.solved_freq_hz, res.freq_hz);

    // At the default tolerance the same sweep confirms its model early.
    EXPECT_LT(cli_band_sweep(net.ckt, "n100").factorizations, res.factorizations / 3);
}

TEST(adaptive_sweep, nan_batches_do_not_end_refinement)
{
    // A NaN stimulus makes every solved value NaN. No batch may confirm
    // the model, so every grid point is solved, and none twice.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.3, 1e6);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    std::vector<cplx> rhs(snap.size(), cplx{});
    const std::size_t k = static_cast<std::size_t>(*c.find_node("tank"));
    rhs[k] = cplx{std::numeric_limits<real>::quiet_NaN(), 0.0};

    const engine::adaptive_sweep eng;
    const engine::adaptive_sweep_result res = eng.run(snap, {rhs}, {{0, k}});
    const engine::adaptive_sweep_options& aopt = eng.options();
    EXPECT_EQ(res.freq_hz,
              numeric::log_grid(aopt.fstart, aopt.fstop, aopt.output_points_per_decade, 8));
    EXPECT_EQ(res.factorizations, res.freq_hz.size());
    for (const cplx& v : res.values[0])
        EXPECT_TRUE(std::isnan(v.real())) << v;
}

TEST(adaptive_sweep, validates_inputs)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.3, 1e6);
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    const engine::adaptive_sweep eng;

    EXPECT_THROW((void)eng.run_injections(snap, {{snap.size(), cplx{1.0, 0.0}}}, {{0, 0}}),
                 analysis_error); // bad injection index
    EXPECT_THROW((void)eng.run_injections(snap, {{0, cplx{1.0, 0.0}}}, {}),
                 analysis_error); // no channels
    EXPECT_THROW((void)eng.run_injections(snap, {{0, cplx{1.0, 0.0}}}, {{1, 0}}),
                 analysis_error); // channel rhs out of range
    EXPECT_THROW((void)eng.run_injections(snap, {{0, cplx{1.0, 0.0}}}, {{0, snap.size()}}),
                 analysis_error); // channel unknown out of range
    EXPECT_THROW((void)eng.run(snap, {std::vector<cplx>(snap.size() + 1)}, {{0, 0}}),
                 analysis_error); // wrong RHS length
}

TEST(adaptive_sweep, fit_tol_is_bounded_by_the_accuracy_contract)
{
    // Above max_fit_tol the model confirms itself on too few solves and
    // the plot reads a wrong damping (rlc_tank at 10: zeta 0.0116 against
    // 0.2025), so the sweep refuses it; at the bound itself it keeps the
    // accuracy contract against the fixed grid.
    spice::parsed_netlist net = spice::parse_netlist_file(netlist("rlc_tank.sp"));
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.adaptive = true;
    for (const real tol : {0.0, -1e-6, 0.011, 0.1, 10.0}) {
        opt.fit_tol = tol;
        core::stability_analyzer an(net.ckt, opt);
        try {
            (void)an.analyze_node("tank");
            ADD_FAILURE() << "fit_tol " << tol << " was accepted";
        } catch (const analysis_error& e) {
            EXPECT_NE(std::string(e.what()).find("fit_tol"), std::string::npos) << e.what();
        }
    }

    opt.fit_tol = engine::max_fit_tol;
    const core::node_stability bound = core::stability_analyzer(net.ckt, opt).analyze_node("tank");
    opt.adaptive = false;
    const core::node_stability fixed = core::stability_analyzer(net.ckt, opt).analyze_node("tank");
    ASSERT_TRUE(bound.has_peak);
    ASSERT_TRUE(fixed.has_peak);
    EXPECT_NEAR(bound.dominant.freq_hz, fixed.dominant.freq_hz, 0.01 * fixed.dominant.freq_hz);
    EXPECT_NEAR(bound.zeta, fixed.zeta, 0.005); // PM ~ 100 zeta: within 0.5 deg
}

} // namespace
