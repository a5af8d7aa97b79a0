// Transient farm campaigns: plan/record serialization, merge byte
// identity, thread independence, hierarchical nodes, and the paper's
// time-domain vs frequency-domain stability cross-check.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/analyzer.h"
#include "core/param_grid.h"
#include "core/tran_stability.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/json.h"
#include "farm_report_oracle.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;

[[nodiscard]] std::string netlist_path(const std::string& name)
{
    return std::string(ACSTAB_NETLIST_DIR) + "/" + name;
}

/// Transient campaign over the shipped two-pole loop: a driven source
/// ("vin" steps), a 2x2 TEMP x corner grid. gain is a real netlist
/// parameter of the loop, so the corner overrides take effect.
[[nodiscard]] farm::campaign_spec loop_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = netlist_path("two_pole_loop.sp");
    spec.node = "out";
    spec.analysis = farm::campaign_analysis::transient;
    spec.tran_source = "vin";
    spec.tran_tstop = 1.3e-5;
    spec.tran_step = 0.01;
    spec.grid.temps = {27.0, 85.0};
    return spec;
}

TEST(farm_transient, plan_round_trips_and_keeps_other_plans_stable)
{
    const farm::campaign_spec spec = loop_campaign();
    const std::string bytes = farm::to_json(spec).dump();
    EXPECT_NE(bytes.find("\"analysis\":\"transient\""), std::string::npos);
    EXPECT_NE(bytes.find("\"transient\":{"), std::string::npos);

    const farm::campaign_spec back
        = farm::campaign_from_json(farm::json_value::parse(bytes));
    EXPECT_EQ(back.analysis, farm::campaign_analysis::transient);
    EXPECT_EQ(back.tran_source, "vin");
    EXPECT_DOUBLE_EQ(back.tran_tstop, 1.3e-5);
    EXPECT_DOUBLE_EQ(back.tran_step, 0.01);
    EXPECT_EQ(farm::to_json(back).dump(), bytes);

    // Stability plans must not grow an analysis/transient member: their
    // bytes are frozen so shard files from older binaries still merge.
    farm::campaign_spec stab = spec;
    stab.analysis = farm::campaign_analysis::stability;
    stab.tran_source.clear();
    const std::string stab_bytes = farm::to_json(stab).dump();
    EXPECT_EQ(stab_bytes.find("analysis"), std::string::npos);
    EXPECT_EQ(stab_bytes.find("transient"), std::string::npos);
}

TEST(farm_transient, plan_with_unbounded_step_count_is_refused)
{
    // tstop / dt = 1.3e25 nominal steps: every worker would run each
    // point until its timeout, so the plan is refused at admission.
    farm::campaign_spec spec = loop_campaign();
    spec.tran_dt = 1e-30;
    EXPECT_THROW((void)farm::campaign_from_json(farm::to_json(spec)), analysis_error);
    spec.tran_dt = -1.0;
    EXPECT_THROW((void)farm::campaign_from_json(farm::to_json(spec)), analysis_error);
    spec.tran_dt = 0.0;
    spec.tran_tstop = 0.0;
    EXPECT_THROW((void)farm::campaign_from_json(farm::to_json(spec)), analysis_error);
}

TEST(farm_transient, record_round_trips_byte_exactly)
{
    const farm::campaign_spec spec = loop_campaign();
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), 2u);
    for (const farm::point_record& rec : records) {
        ASSERT_EQ(rec.status, farm::point_status::ok) << rec.error;
        ASSERT_TRUE(rec.transient.has_value());
        EXPECT_TRUE(rec.transient->stable);
        EXPECT_GT(rec.transient->overshoot_pct, 30.0);
        EXPECT_GT(rec.transient->equiv_pm_deg, 5.0);
        EXPECT_FALSE(rec.transient->time_s.empty());
        EXPECT_EQ(rec.transient->time_s.size(), rec.transient->value.size());

        // The record's JSON carries the payload exactly and re-dumps to
        // the same bytes.
        const farm::json_value obj = farm::point_record_to_json(rec);
        const farm::json_value back = farm::json_value::parse(obj.dump());
        EXPECT_EQ(back.dump(), obj.dump());
        const farm::json_value& tr = back.at("transient");
        EXPECT_EQ(tr.at("zeta").as_number(), rec.transient->zeta);
        const auto& value = tr.at("value").items();
        ASSERT_EQ(value.size(), rec.transient->value.size());
        for (std::size_t k = 0; k < value.size(); ++k)
            EXPECT_EQ(value[k].as_number(), rec.transient->value[k]);
    }
}

TEST(farm_transient, two_shard_merge_is_byte_identical_to_single_run)
{
    const farm::campaign_spec spec = loop_campaign();
    const std::string single = farm_test::expected_report_bytes(spec);
    const std::string a = farm_test::write_stream("test_farm_tran_s0.jsonl", spec, 0,
                                                  farm::run_shard(spec, 0, 2));
    const std::string b = farm_test::write_stream("test_farm_tran_s1.jsonl", spec, 1,
                                                  farm::run_shard(spec, 1, 2));
    EXPECT_EQ(farm_test::merged_bytes(spec, {a, b}, "test_farm_tran_merged.json"), single);
    // Shard order must not matter either.
    EXPECT_EQ(farm_test::merged_bytes(spec, {b, a}, "test_farm_tran_merged.json"), single);
}

TEST(farm_transient, thread_count_does_not_change_record_bytes)
{
    const farm::campaign_spec spec = loop_campaign();
    EXPECT_EQ(farm_test::report_bytes(spec, farm::run_shard(spec, 0, 1, 1)),
              farm_test::report_bytes(spec, farm::run_shard(spec, 0, 1, 4)));
}

TEST(farm_transient, point_runner_matches_run_shard_bytes)
{
    const farm::campaign_spec spec = loop_campaign();
    const std::vector<farm::point_record> all = farm::run_shard(spec, 0, 1);
    const farm::point_runner runner(spec);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(farm::point_record_to_json(runner.run(i)).dump(),
                  farm::point_record_to_json(all[i]).dump());
}

TEST(farm_transient, report_table_shows_transient_columns)
{
    const farm::campaign_spec spec = loop_campaign();
    const std::string table = farm::format_report(
        farm::json_value::parse(farm_test::expected_report_bytes(spec)));
    EXPECT_NE(table.find("transient-campaign report, node 'out'"), std::string::npos);
    EXPECT_NE(table.find("overshoot"), std::string::npos);
    EXPECT_NE(table.find("equiv PM"), std::string::npos);
    EXPECT_NE(table.find("T=27"), std::string::npos);
}

TEST(farm_transient, hierarchical_node_names_reach_reports)
{
    // Subcircuit internals stay addressable end to end: the campaign
    // watches x1.mid, the record is ok, and the report names the node.
    const std::string path = "test_farm_tran_sub.sp";
    {
        std::ofstream out(path, std::ios::binary);
        out << "* subckt transient fixture\n"
               ".subckt rcsec top bottom\n"
               "R1 top mid 1k\n"
               "C1 mid bottom 1n\n"
               "R2 mid bottom 1k\n"
               ".ends\n"
               "V1 in 0 0\n"
               "X1 in 0 rcsec\n"
               ".end\n";
    }
    farm::campaign_spec spec;
    spec.netlist = path;
    spec.node = "x1.mid";
    spec.analysis = farm::campaign_analysis::transient;
    spec.tran_source = "v1";
    spec.tran_tstop = 1e-5;
    const std::vector<farm::point_record> recs = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].status, farm::point_status::ok) << recs[0].error;
    ASSERT_TRUE(recs[0].transient.has_value());
    EXPECT_TRUE(recs[0].transient->stable);
    const std::string table
        = farm::format_report(farm::json_value::parse(farm_test::report_bytes(spec, recs)));
    EXPECT_NE(table.find("x1.mid"), std::string::npos);
    std::remove(path.c_str());
}

// --- AC vs transient cross-check (the PR's headline contract) --------------
//
// The AC analyzer reads zeta off the stability plot's peak and maps it
// to a phase margin with the paper's rule of thumb (PM ~ 100 * zeta,
// capped at 90). The transient path re-measures zeta from the step
// response (overshoot inversion, or ring-down log decrement when there
// is no overshoot reference) and applies the SAME mapping. The two
// verdicts must agree within 5 degrees — the documented tolerance of
// the cross-check, dominated by the rule-of-thumb's own bias and the
// discretization of the waveform extrema.

TEST(farm_transient, crosscheck_two_pole_loop_driven_step)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist_path("two_pole_loop.sp"));

    core::stability_options sopt;
    sopt.sweep.fstart = 1e4;
    sopt.sweep.fstop = 1e8;
    sopt.sweep.points_per_decade = 60;
    core::stability_analyzer an(net.ckt, sopt);
    const core::node_stability ac = an.analyze_node("out");
    ASSERT_TRUE(ac.is_underdamped);

    core::tran_stability_options topt;
    topt.source = "vin";
    topt.tstop = 1.3e-5;
    const core::tran_stability_result tr
        = core::measure_tran_stability(net.ckt, "out", topt);
    EXPECT_TRUE(tr.stable);
    EXPECT_NEAR(tr.zeta, ac.zeta, 0.05);
    EXPECT_NEAR(tr.equiv_pm_deg, ac.phase_margin_est_deg, 5.0);
}

TEST(farm_transient, crosscheck_rlc_tank_injected_step)
{
    // No source in the tank netlist: the measurement injects a current
    // step at the watched node and reads zeta from the ring-down log
    // decrement. The fixture's exact damping is 0.2 (paper eq. 1.4).
    spice::parsed_netlist net = spice::parse_netlist_file(netlist_path("rlc_tank.sp"));

    core::stability_options sopt;
    sopt.sweep.fstart = 1e4;
    sopt.sweep.fstop = 1e8;
    sopt.sweep.points_per_decade = 60;
    core::stability_analyzer an(net.ckt, sopt);
    const core::node_stability ac = an.analyze_node("tank");
    ASSERT_TRUE(ac.is_underdamped);
    EXPECT_NEAR(ac.zeta, 0.2, 0.02);

    core::tran_stability_options topt;
    topt.tstop = 1e-5;
    const core::tran_stability_result tr
        = core::measure_tran_stability(net.ckt, "tank", topt);
    EXPECT_TRUE(tr.stable);
    EXPECT_TRUE(tr.ringing);
    EXPECT_NEAR(tr.zeta, ac.zeta, 0.05);
    EXPECT_NEAR(tr.equiv_pm_deg, ac.phase_margin_est_deg, 5.0);
    EXPECT_NEAR(tr.ringing_freq_hz, 1e6, 1e5);
}

TEST(farm_transient, verdict_does_not_depend_on_where_dc_stopped)
{
    // The benchmark's seed-1 campaign cell (perfbench/gen.py
    // campaign_cell(1)) at point 60 of its transient plan, TEMP 16.8673 C
    // and cl = 38.2341 pF, built the way a farm worker builds it. The
    // step response starts from the DC point, so a point that only met
    // reltol = 1e-3 started off equilibrium: the equivalent PM read
    // 17.914 deg against 17.064 deg from the exact operating point.
    const core::circuit_template tmpl{
        "",
        "* campaign cell (emitter follower), seed 1\n"
        ".model fnpn npn is=1e-16 bf=150 br=2 vaf=80 cje=0.25p vje=0.75 mje=0.33\n"
        "+ cjc=0.15p vjc=0.6 mjc=0.4 tf=0.5n tr=10n\n"
        ".param rs=10024.8 cl=5.41215e-11\n"
        "vdd vdd 0 5\n"
        "vbias f_src 0 2.5 ac 1\n"
        "rsource f_src f_in {rs}\n"
        "qf vdd f_in f_out fnpn\n"
        "iload f_out 0 1m\n"
        "cload f_out 0 {cl}\n"
        ".end\n"};
    core::param_grid grid;
    grid.temps = {16.8673};
    grid.axes = {{"cl", {3.82341e-11}}};
    const auto measure = [&](real dc_reltol) {
        spice::circuit c = std::move(tmpl.build(grid.point(0)).ckt);
        core::tran_stability_options topt;
        topt.source = "vbias";
        topt.step_size = 0.01;
        topt.tstop = 400e-9;
        topt.dt = 1e-9;
        topt.tran.dc.reltol = dc_reltol;
        return core::measure_tran_stability(c, "f_out", topt);
    };
    const core::tran_stability_result def = measure(1e-3);
    const core::tran_stability_result exact = measure(1e-9);
    EXPECT_NEAR(def.equiv_pm_deg, exact.equiv_pm_deg, 0.01);
    EXPECT_NEAR(def.overshoot_pct, exact.overshoot_pct, 0.01);
}

TEST(farm_transient, unstable_loop_flagged_unstable_in_time_domain)
{
    // The three-pole loop's AC verdict is UNSTABLE (PM about -61 deg);
    // its step response must not settle either.
    spice::parsed_netlist net
        = spice::parse_netlist_file(netlist_path("three_pole_loop.sp"));
    core::tran_stability_options topt;
    topt.source = "vin";
    topt.tstop = 5e-3; // several periods of the ~30 kHz growing oscillation
    const core::tran_stability_result tr
        = core::measure_tran_stability(net.ckt, "out", topt);
    EXPECT_FALSE(tr.stable);
    EXPECT_LT(tr.equiv_pm_deg, 10.0);
}

} // namespace
