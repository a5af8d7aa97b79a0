// Solver-mode equivalence: the ordering / SIMD-kernel / supernodal axes
// of engine::solver_tuning are performance knobs, never answer knobs.
// Every shipped netlist must produce the same verdicts (margins within
// tolerance, formatted summaries byte-identical) under amd-approx/none
// ordering, SIMD/scalar kernels and blocked/column numeric paths at 1
// and 4 threads. Plans no longer carry solver tuning at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/analyzer.h"
#include "core/param_grid.h"
#include "core/report.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "farm/campaign.h"
#include "gen/netlist_gen.h"
#include "numeric/interpolation.h"
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

const char* const shipped[] = {"follower.sp", "rlc_tank.sp", "three_pole_loop.sp",
                               "two_pole_loop.sp"};

core::stability_report report_for(const char* name, engine::solver_tuning tuning,
                                  std::size_t threads)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist(name));
    core::stability_options opt;
    opt.threads = threads;
    opt.tuning = tuning;
    core::stability_analyzer an(net.ckt, opt);
    return an.analyze_all_nodes();
}

void expect_equivalent(const core::stability_report& ref, const core::stability_report& got,
                       const std::string& label)
{
    ASSERT_EQ(got.nodes.size(), ref.nodes.size()) << label;
    ASSERT_EQ(got.skipped_nodes, ref.skipped_nodes) << label;
    for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
        const core::node_stability& r = ref.nodes[i];
        // Reports sort nodes by natural frequency; nodes whose frequencies
        // agree to rounding may legally swap places between solver modes,
        // so match records by name rather than position.
        const auto match = std::find_if(got.nodes.begin(), got.nodes.end(),
                                        [&r](const core::node_stability& n) {
                                            return n.node == r.node;
                                        });
        ASSERT_NE(match, got.nodes.end()) << label << " node " << r.node;
        const core::node_stability& g = *match;
        ASSERT_EQ(g.has_peak, r.has_peak) << label << " node " << r.node;
        ASSERT_EQ(g.is_underdamped, r.is_underdamped) << label << " node " << r.node;
        if (!r.has_peak)
            continue;
        EXPECT_NEAR(g.dominant.freq_hz, r.dominant.freq_hz, 1e-6 * r.dominant.freq_hz)
            << label << " node " << r.node;
        EXPECT_NEAR(g.zeta, r.zeta, 1e-6 * std::max(r.zeta, real{1e-6}))
            << label << " node " << r.node;
        EXPECT_NEAR(g.phase_margin_est_deg, r.phase_margin_est_deg, 1e-3)
            << label << " node " << r.node;
    }
    ASSERT_EQ(got.loops.size(), ref.loops.size()) << label;
}

/// Every surviving tuning — amd-approx/none ordering x SIMD/scalar kernel
/// x supernodal/column path — on every shipped netlist, each at 1 and 4
/// threads, against the default-tuning serial reference: identical
/// verdicts, margins within tolerance.
TEST(solver_modes, ordering_and_kernel_equivalence_on_shipped_netlists)
{
    for (const char* name : shipped) {
        const core::stability_report ref = report_for(name, {}, 1);
        for (const numeric::column_ordering ordering :
             {numeric::column_ordering::amd_approx, numeric::column_ordering::none})
            for (const bool simd : {false, true})
                for (const bool supernodal : {false, true})
                    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                        engine::solver_tuning tuning;
                        tuning.ordering = ordering;
                        tuning.simd = simd;
                        tuning.supernodal = supernodal;
                        const std::string label = std::string(name) + " ordering="
                            + std::to_string(static_cast<int>(ordering)) + " simd="
                            + std::to_string(simd) + " supernodal=" + std::to_string(supernodal)
                            + " threads=" + std::to_string(threads);
                        expect_equivalent(ref, report_for(name, tuning, threads), label);
                    }
    }
}

// ---- raw-engine agreement on a generated mesh ------------------------------

struct sweep_capture {
    std::vector<std::vector<std::vector<cplx>>> sol; ///< [fi][ri][unknown]
};

sweep_capture run_engine(const engine::linearized_snapshot& snap,
                         const std::vector<real>& freqs,
                         const std::vector<engine::sweep_engine::injection>& injections,
                         engine::solver_tuning tuning, std::size_t threads)
{
    engine::sweep_engine_options opt;
    opt.threads = threads;
    opt.tuning = tuning;
    const engine::sweep_engine eng(opt);
    sweep_capture cap;
    cap.sol.assign(freqs.size(),
                   std::vector<std::vector<cplx>>(injections.size(),
                                                  std::vector<cplx>(snap.size())));
    eng.run_injections(snap, freqs, injections,
                       [&cap](std::size_t fi, std::size_t ri, std::span<const cplx> s) {
                           cap.sol[fi][ri].assign(s.begin(), s.end());
                       });
    return cap;
}

real max_rel_diff(const sweep_capture& a, const sweep_capture& b)
{
    real scale = 0.0;
    for (const auto& per_freq : a.sol)
        for (const auto& col : per_freq)
            for (const cplx& v : col)
                scale = std::max(scale, std::abs(v));
    real diff = 0.0;
    for (std::size_t fi = 0; fi < a.sol.size(); ++fi)
        for (std::size_t ri = 0; ri < a.sol[fi].size(); ++ri)
            for (std::size_t k = 0; k < a.sol[fi][ri].size(); ++k)
                diff = std::max(diff, std::abs(a.sol[fi][ri][k] - b.sol[fi][ri][k]));
    return diff / std::max(scale, real{1e-300});
}

engine::linearized_snapshot mesh_snapshot(spice::parsed_netlist& net, std::size_t size)
{
    gen::gen_options gopt;
    gopt.size = size;
    net = spice::parse_netlist(gen::rcmesh_netlist(gopt));
    net.ckt.finalize();
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    return engine::linearized_snapshot(net.ckt, op, sopt);
}

TEST(solver_modes, simd_and_scalar_kernels_agree_on_generated_mesh)
{
    spice::parsed_netlist net;
    const engine::linearized_snapshot snap = mesh_snapshot(net, 64);
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 12);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.size(); ++k)
        injections.push_back({k, cplx{1.0, 0.0}});

    engine::solver_tuning simd_on;
    engine::solver_tuning simd_off;
    simd_off.simd = false;
    const sweep_capture ref = run_engine(snap, freqs, injections, simd_off, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const sweep_capture simd = run_engine(snap, freqs, injections, simd_on, threads);
        EXPECT_LE(max_rel_diff(ref, simd), 1e-12) << "threads=" << threads;
    }
}

/// The supernodal/blocked numeric path against the column-at-a-time
/// reference on a generated mesh (the fill-heavy case where supernodes
/// actually get wide), at 1 and 4 threads: answers agree to 1e-12.
TEST(solver_modes, supernodal_and_column_paths_agree_on_generated_mesh)
{
    spice::parsed_netlist net;
    const engine::linearized_snapshot snap = mesh_snapshot(net, 144);
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 12);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.size(); k += 5)
        injections.push_back({k, cplx{1.0, 0.0}});

    engine::solver_tuning column;
    column.supernodal = false;
    engine::solver_tuning blocked; // default: supernodal on
    const sweep_capture ref = run_engine(snap, freqs, injections, column, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const sweep_capture blk = run_engine(snap, freqs, injections, blocked, threads);
        EXPECT_LE(max_rel_diff(ref, blk), 1e-12) << "threads=" << threads;
    }
}

/// The same on a 2k-unknown mesh, whose partition has width-32 supernodes
/// and multi-column pairs: the workers share the symbolic object and its
/// pair plan, at 1 and 4 threads.
TEST(solver_modes, supernodal_and_column_paths_agree_on_2k_mesh_at_1_and_4_threads)
{
    spice::parsed_netlist net;
    const engine::linearized_snapshot snap = mesh_snapshot(net, 2048);
    const std::vector<real> freqs = numeric::log_grid(1e3, 1e9, 2);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < snap.size(); k += snap.size() / 6)
        injections.push_back({k, cplx{1.0, 0.0}});

    engine::solver_tuning column;
    column.supernodal = false;
    const sweep_capture ref = run_engine(snap, freqs, injections, column, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const sweep_capture blk = run_engine(snap, freqs, injections, {}, threads);
        EXPECT_LE(max_rel_diff(ref, blk), 1e-12) << "threads=" << threads;
    }
}

// ---- report byte identity ---------------------------------------------------

/// The formatted single-node summaries of the tank at the TEMP points of
/// a small campaign, under one solver tuning and sweep thread count.
std::string tank_summaries(engine::solver_tuning tuning, std::size_t threads)
{
    core::param_grid grid;
    grid.temps = {0.0, 50.0};
    const core::circuit_template tmpl{netlist("rlc_tank.sp"), ""};
    std::string out;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        spice::parsed_netlist net = tmpl.build(grid.point(i));
        core::stability_options opt;
        opt.sweep.fstart = 1e4;
        opt.sweep.fstop = 1e8;
        opt.sweep.points_per_decade = 40;
        opt.threads = threads;
        opt.tuning = tuning;
        core::stability_analyzer an(net.ckt, opt);
        out += core::format_node_summary(an.analyze_node("tank"));
    }
    return out;
}

/// Solver internals must not leak into reported results: the formatted
/// summaries are byte-identical across orderings, kernels, numeric paths
/// and sweep thread counts.
TEST(solver_modes, node_summaries_are_byte_identical_across_solver_modes)
{
    const std::string ref = tank_summaries({}, 1);
    EXPECT_NE(ref.find("Node tank:"), std::string::npos);
    EXPECT_NE(ref.find("damping ratio"), std::string::npos);

    for (const numeric::column_ordering ordering :
         {numeric::column_ordering::none, numeric::column_ordering::amd_approx})
        for (const bool simd : {false, true})
            for (const bool supernodal : {false, true})
                for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                    engine::solver_tuning tuning;
                    tuning.ordering = ordering;
                    tuning.simd = simd;
                    tuning.supernodal = supernodal;
                    EXPECT_EQ(tank_summaries(tuning, threads), ref)
                        << "ordering=" << static_cast<int>(ordering) << " simd=" << simd
                        << " supernodal=" << supernodal << " threads=" << threads;
                }
}

// ---- plan format ------------------------------------------------------------

/// Solver tuning is not a plan setting: a default plan carries none of
/// the retired sweep keys, and a plan whose sweep object still carries
/// one is refused with an error that names the key.
TEST(solver_modes, plans_with_retired_solver_keys_are_rejected)
{
    farm::campaign_spec spec;
    spec.netlist = netlist("rlc_tank.sp");
    spec.node = "tank";
    spec.grid.temps = {0.0, 50.0};
    const std::string bytes = farm::to_json(spec).dump();
    EXPECT_NO_THROW((void)farm::campaign_from_json(farm::json_value::parse(bytes)));

    const std::string sweep_open = "\"sweep\":{";
    const std::size_t at = bytes.find(sweep_open);
    ASSERT_NE(at, std::string::npos);
    for (const std::string key : {"order", "simd", "warm", "supernodal", "warm_pipeline"}) {
        EXPECT_EQ(bytes.find("\"" + key + "\""), std::string::npos) << key;
        std::string retired = bytes;
        retired.insert(at + sweep_open.size(),
                       "\"" + key + "\":" + (key == "order" ? "\"none\"" : "false") + ",");
        try {
            (void)farm::campaign_from_json(farm::json_value::parse(retired));
            ADD_FAILURE() << "plan with sweep key '" << key << "' was accepted";
        } catch (const analysis_error& e) {
            EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
                << e.what();
        }
    }
}

} // namespace
