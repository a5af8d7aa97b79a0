// Corner-farm subsystem: declarative grids, the per-point runner, shard
// streams and their deterministic merge.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "circuits/bias.h"
#include "core/param_grid.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/json.h"
#include "farm/shard_store.h"
#include "farm_report_oracle.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;

constexpr const char* tank_netlist = R"(* parameterized RLC tank
.param rval=397.887 cval=1n
r1 tank 0 {rval}
l1 tank 0 25.3303u
c1 tank 0 {cval}
.stability tank 1e4 1e8 40
.end
)";

/// Write the parameterized tank netlist to a scratch file (shard
/// executors re-read the netlist by path, so template tests need one).
[[nodiscard]] std::string tank_netlist_path()
{
    static const std::string path = [] {
        const std::string p = "test_farm_tank.sp";
        std::ofstream out(p, std::ios::binary);
        out << tank_netlist;
        return p;
    }();
    return path;
}

[[nodiscard]] farm::campaign_spec tank_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = tank_netlist_path();
    spec.node = "tank";
    spec.fstart = 1e4;
    spec.fstop = 1e8;
    spec.points_per_decade = 40;
    spec.grid.temps = {0.0, 50.0};
    spec.grid.corners = {{"slow", {{"rval", 300.0}}}, {"fast", {{"rval", 500.0}}}};
    spec.grid.axes = {{"cval", {0.8e-9, 1.2e-9}}};
    return spec;
}

// --- param_grid ------------------------------------------------------------

TEST(param_grid, mixed_radix_decode_is_row_major)
{
    core::param_grid grid;
    grid.temps = {-40.0, 125.0};
    grid.corners = {{"ff", {{"a", 1.0}}}, {"ss", {{"a", 2.0}}}};
    grid.axes = {{"b", {10.0, 20.0, 30.0}}};
    ASSERT_EQ(grid.size(), 12u);

    // index = ((temp * corners) + corner) * axis + digit, last axis fastest.
    const core::grid_point p0 = grid.point(0);
    EXPECT_EQ(p0.index, 0u);
    EXPECT_DOUBLE_EQ(*p0.temp_celsius, -40.0);
    EXPECT_EQ(p0.corner, "ff");
    EXPECT_DOUBLE_EQ(p0.overrides.at("a"), 1.0);
    EXPECT_DOUBLE_EQ(p0.overrides.at("b"), 10.0);

    const core::grid_point p5 = grid.point(5);
    EXPECT_DOUBLE_EQ(*p5.temp_celsius, -40.0);
    EXPECT_EQ(p5.corner, "ss");
    EXPECT_DOUBLE_EQ(p5.overrides.at("b"), 30.0);

    const core::grid_point p11 = grid.point(11);
    EXPECT_DOUBLE_EQ(*p11.temp_celsius, 125.0);
    EXPECT_EQ(p11.corner, "ss");
    EXPECT_DOUBLE_EQ(p11.overrides.at("b"), 30.0);
    EXPECT_EQ(p11.label(), "T=125 corner=ss a=2 b=30");
}

TEST(param_grid, empty_axes_mean_one_nominal_point)
{
    core::param_grid grid;
    EXPECT_EQ(grid.size(), 1u);
    const core::grid_point pt = grid.point(0);
    EXPECT_FALSE(pt.temp_celsius.has_value());
    EXPECT_TRUE(pt.corner.empty());
    EXPECT_TRUE(pt.overrides.empty());
    EXPECT_EQ(pt.label(), "nominal");
}

TEST(param_grid, axis_overrides_same_named_corner_parameter)
{
    core::param_grid grid;
    grid.corners = {{"c", {{"x", 1.0}, {"y", 5.0}}}};
    grid.axes = {{"x", {9.0}}};
    const core::grid_point pt = grid.point(0);
    EXPECT_DOUBLE_EQ(pt.overrides.at("x"), 9.0); // axis wins
    EXPECT_DOUBLE_EQ(pt.overrides.at("y"), 5.0);
}

TEST(param_grid, validation_errors)
{
    core::param_grid grid;
    grid.axes = {{"a", {}}};
    EXPECT_THROW((void)grid.size(), analysis_error);
    grid.axes = {{"a", {1.0}}, {"a", {2.0}}};
    EXPECT_THROW((void)grid.size(), analysis_error);
    grid.axes = {{"a", {1.0}}};
    EXPECT_THROW((void)grid.point(1), analysis_error);
    grid.axes.clear();
    grid.corners = {{"c", {}}, {"c", {}}};
    EXPECT_THROW((void)grid.size(), analysis_error);
}

// --- shard partitioning ----------------------------------------------------

TEST(shard_slice, covers_every_point_exactly_once)
{
    for (const std::size_t total : {0u, 1u, 5u, 12u, 100u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
            std::size_t covered = 0;
            std::size_t expected_begin = 0;
            for (std::size_t k = 0; k < shards; ++k) {
                const farm::shard_range r = farm::shard_slice(total, k, shards);
                EXPECT_EQ(r.begin, expected_begin);
                EXPECT_LE(r.end - r.begin, total / shards + 1);
                covered += r.end - r.begin;
                expected_begin = r.end;
            }
            EXPECT_EQ(covered, total);
            EXPECT_EQ(expected_begin, total);
        }
    }
    EXPECT_THROW((void)farm::shard_slice(10, 0, 0), analysis_error);
    EXPECT_THROW((void)farm::shard_slice(10, 2, 2), analysis_error);
}

// --- JSON ------------------------------------------------------------------

TEST(farm_json, dump_parse_round_trip_is_byte_stable)
{
    farm::json_value obj = farm::json_value::object();
    obj.set("a", farm::json_value::number(0.1));
    obj.set("b", farm::json_value::number(-1.25e-30));
    obj.set("c", farm::json_value::str("quote\" slash\\ tab\t ctrl\x01"));
    farm::json_value arr = farm::json_value::array();
    arr.push_back(farm::json_value::boolean(true));
    arr.push_back(farm::json_value{});
    arr.push_back(farm::json_value::number(std::size_t{1234567}));
    obj.set("d", std::move(arr));

    const std::string bytes = obj.dump();
    const farm::json_value reparsed = farm::json_value::parse(bytes);
    EXPECT_EQ(reparsed.dump(), bytes);
    EXPECT_DOUBLE_EQ(reparsed.at("a").as_number(), 0.1);
    EXPECT_DOUBLE_EQ(reparsed.at("b").as_number(), -1.25e-30);
    EXPECT_EQ(reparsed.at("c").as_string(), "quote\" slash\\ tab\t ctrl\x01");
    EXPECT_EQ(reparsed.at("d").items().size(), 3u);
    EXPECT_EQ(reparsed.at("d").items()[2].as_index(), 1234567u);
}

TEST(farm_json, non_finite_numbers_round_trip_as_valid_json)
{
    // Non-finite raw samples (a failed point's response, an infinite
    // impedance) must serialize as standard JSON — jq/Python choke on the
    // bare nan/inf tokens std::to_chars would emit.
    farm::json_value obj = farm::json_value::object();
    obj.set("nan", farm::json_value::number(std::nan("")));
    obj.set("pinf", farm::json_value::number(std::numeric_limits<real>::infinity()));
    obj.set("ninf", farm::json_value::number(-std::numeric_limits<real>::infinity()));
    farm::json_value arr = farm::json_value::array();
    arr.push_back(farm::json_value::number(1.5));
    arr.push_back(farm::json_value::number(std::nan("")));
    obj.set("mix", std::move(arr));

    const std::string bytes = obj.dump();
    EXPECT_EQ(bytes, R"({"nan":"nan","pinf":"inf","ninf":"-inf","mix":[1.5,"nan"]})");

    // Parse -> dump is byte-stable, and numeric consumers see the values.
    const farm::json_value reparsed = farm::json_value::parse(bytes);
    EXPECT_EQ(reparsed.dump(), bytes);
    EXPECT_TRUE(std::isnan(reparsed.at("nan").as_number()));
    EXPECT_EQ(reparsed.at("pinf").as_number(), std::numeric_limits<real>::infinity());
    EXPECT_EQ(reparsed.at("ninf").as_number(), -std::numeric_limits<real>::infinity());
    EXPECT_TRUE(std::isnan(reparsed.at("mix").items()[1].as_number()));

    // Legacy bare tokens (what older builds dumped) still parse, and
    // re-serialize into the canonical string form.
    const farm::json_value legacy = farm::json_value::parse("[nan,inf,-inf]");
    EXPECT_TRUE(std::isnan(legacy.items()[0].as_number()));
    EXPECT_EQ(legacy.dump(), R"(["nan","inf","-inf"])");

    // Other strings still refuse to masquerade as numbers.
    EXPECT_THROW((void)farm::json_value::parse(R"("infinite")").as_number(),
                 analysis_error);
}

TEST(farm_json, rejects_malformed_documents)
{
    EXPECT_THROW((void)farm::json_value::parse("{\"a\":}"), parse_error);
    EXPECT_THROW((void)farm::json_value::parse("[1,2"), parse_error);
    EXPECT_THROW((void)farm::json_value::parse("{} trailing"), parse_error);
    EXPECT_THROW((void)farm::json_value::parse("\"unterminated"), parse_error);
    // Pathological nesting must fail cleanly, not overflow the stack.
    const std::string deep(100000, '[');
    EXPECT_THROW((void)farm::json_value::parse(deep), parse_error);
}

TEST(farm_campaign, spec_round_trips_through_json)
{
    const farm::campaign_spec spec = tank_campaign();
    const std::string bytes = farm::to_json(spec).dump();
    const farm::campaign_spec back
        = farm::campaign_from_json(farm::json_value::parse(bytes));
    EXPECT_EQ(farm::to_json(back).dump(), bytes);
    EXPECT_EQ(back.node, "tank");
    EXPECT_EQ(back.grid.size(), 8u);
    EXPECT_DOUBLE_EQ(back.grid.corners[1].overrides.at("rval"), 500.0);
}

TEST(farm_campaign, stability_plan_below_four_points_per_decade_is_refused)
{
    // The stability plot needs 4 points/decade; a plan below that used to
    // run (adaptive points recorded a wrong verdict as ok).
    for (const bool adaptive : {false, true}) {
        farm::campaign_spec spec = tank_campaign();
        spec.points_per_decade = 2;
        spec.adaptive = adaptive;
        const farm::json_value doc = farm::to_json(spec);
        try {
            (void)farm::campaign_from_json(doc);
            ADD_FAILURE() << "plan accepted, adaptive=" << adaptive;
        } catch (const analysis_error& e) {
            EXPECT_NE(std::string(e.what()).find("points_per_decade"), std::string::npos)
                << e.what();
        }
    }
    // Impedance and transient campaigns do not run the stability plot.
    farm::campaign_spec imp = tank_campaign();
    imp.points_per_decade = 2;
    imp.analysis = farm::campaign_analysis::impedance;
    EXPECT_EQ(farm::campaign_from_json(farm::to_json(imp)).points_per_decade, 2u);
}

TEST(farm_campaign, fit_tol_above_the_accuracy_bound_is_refused)
{
    // A plan's fit_tol is bounded like --fit-tol: past 1e-2 an adaptive
    // campaign recorded a wrong damping (the tank at 10: zeta 0.0139).
    for (const real tol : {0.0, 0.1, 10.0}) {
        farm::campaign_spec spec = tank_campaign();
        spec.adaptive = true;
        spec.fit_tol = tol;
        const farm::json_value doc = farm::to_json(spec);
        try {
            (void)farm::campaign_from_json(doc);
            ADD_FAILURE() << "plan accepted, fit_tol=" << tol;
        } catch (const analysis_error& e) {
            EXPECT_NE(std::string(e.what()).find("fit_tol"), std::string::npos) << e.what();
        }
    }
    farm::campaign_spec spec = tank_campaign();
    spec.adaptive = true;
    spec.fit_tol = 1e-2;
    EXPECT_DOUBLE_EQ(farm::campaign_from_json(farm::to_json(spec)).fit_tol, 1e-2);
}

// --- parser campaign inputs ------------------------------------------------

TEST(farm_parser, param_override_wins_over_netlist_card)
{
    spice::parse_options popt;
    popt.param_overrides["rval"] = 500.0;
    const spice::parsed_netlist net = spice::parse_netlist(tank_netlist, popt);
    EXPECT_DOUBLE_EQ(net.parameters.at("rval"), 500.0);
    EXPECT_DOUBLE_EQ(net.parameters.at("cval"), 1e-9); // untouched card value
}

TEST(farm_parser, temp_and_corner_cards_are_collected)
{
    const spice::parsed_netlist net = spice::parse_netlist(R"(* cards
r1 a 0 1k
.temp -40 27 125
.corner fast rval=0.9k
.corner slow
.end
)");
    ASSERT_EQ(net.temp_values.size(), 3u);
    EXPECT_DOUBLE_EQ(net.temp_values[1], 27.0);
    ASSERT_EQ(net.corners.size(), 2u);
    EXPECT_EQ(net.corners[0].name, "fast");
    EXPECT_DOUBLE_EQ(net.corners[0].overrides.at("rval"), 900.0);
    EXPECT_TRUE(net.corners[1].overrides.empty());

    const core::param_grid grid = core::grid_from_netlist_cards(net);
    EXPECT_EQ(grid.size(), 6u);
}

TEST(farm_parser, model_temp_override_reaches_junction_devices)
{
    // A BJT's DC operating point depends on kT/q, so the same follower
    // at two temperatures must bias differently.
    const char* follower = R"(* one-transistor follower
.model n1 npn is=1e-16 bf=100
vcc vdd 0 5
vb b 0 2
q1 vdd b e n1
re e 0 1k
.end
)";
    spice::parse_options cold;
    cold.temp_celsius = -40.0;
    spice::parse_options hot;
    hot.temp_celsius = 125.0;
    spice::parsed_netlist net_cold = spice::parse_netlist(follower, cold);
    spice::parsed_netlist net_hot = spice::parse_netlist(follower, hot);
    const spice::dc_result op_cold = spice::dc_operating_point(net_cold.ckt);
    const spice::dc_result op_hot = spice::dc_operating_point(net_hot.ckt);
    const auto e_cold = net_cold.ckt.find_node("e");
    const auto e_hot = net_hot.ckt.find_node("e");
    ASSERT_TRUE(e_cold && e_hot);
    const real v_cold = op_cold.solution[static_cast<std::size_t>(*e_cold)];
    const real v_hot = op_hot.solution[static_cast<std::size_t>(*e_hot)];
    EXPECT_GT(std::fabs(v_cold - v_hot), 0.05); // VBE shifts with temp
}

// --- point runner, shard streams and merge --------------------------------

using farm_test::merged_bytes;
using farm_test::report_bytes;
using farm_test::write_stream;

/// Write `text` to a scratch netlist file and return its path.
[[nodiscard]] std::string write_netlist(const std::string& path, const std::string& text)
{
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

TEST(farm_executor, two_shard_merge_is_byte_identical_to_single_run)
{
    const farm::campaign_spec spec = tank_campaign();
    const std::string single = farm_test::expected_report_bytes(spec);

    const std::vector<farm::point_record> s0 = farm::run_shard(spec, 0, 2);
    const std::vector<farm::point_record> s1 = farm::run_shard(spec, 1, 2);
    EXPECT_EQ(s0.size() + s1.size(), spec.grid.size());
    const std::string a = write_stream("test_farm_s0.jsonl", spec, 0, s0);
    const std::string b = write_stream("test_farm_s1.jsonl", spec, 1, s1);
    EXPECT_EQ(merged_bytes(spec, {a, b}, "test_farm_merged.json"), single);
    // Shard order must not matter either.
    EXPECT_EQ(merged_bytes(spec, {b, a}, "test_farm_merged.json"), single);
    // There is no third shard of two.
    EXPECT_THROW((void)farm::run_shard(spec, 2, 2), analysis_error);
}

TEST(farm_executor, point_runner_matches_run_shard_bytes)
{
    // The orchestrator's workers execute one point at a time through
    // point_runner; retries and resumes are only byte-safe if those
    // records are identical to the batch path's.
    const farm::campaign_spec spec = tank_campaign();
    const std::vector<farm::point_record> batch = farm::run_shard(spec, 0, 1);
    const farm::point_runner runner(spec);
    ASSERT_EQ(batch.size(), spec.grid.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const farm::point_record one = runner.run(i);
        EXPECT_EQ(farm::point_record_to_json(one).dump(),
                  farm::point_record_to_json(batch[i]).dump())
            << "point " << i;
    }
    // An index past the grid is a caller error, not a recorded failure.
    EXPECT_THROW((void)runner.run(batch.size()), analysis_error);
}

TEST(farm_executor, threaded_run_matches_serial_bytes)
{
    const farm::campaign_spec spec = tank_campaign();
    EXPECT_EQ(report_bytes(spec, farm::run_shard(spec, 0, 1, 1)),
              report_bytes(spec, farm::run_shard(spec, 0, 1, 4)));
}

TEST(farm_executor, records_carry_summary_and_raw_response)
{
    farm::campaign_spec spec = tank_campaign();
    spec.grid.temps.clear();
    spec.grid.corners.clear(); // single cval axis -> 2 points
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), 2u);
    for (const farm::point_record& rec : records) {
        EXPECT_EQ(rec.status, farm::point_status::ok);
        EXPECT_TRUE(rec.has_peak);
        EXPECT_NEAR(rec.fn_hz, 1e6, 0.3e6);
        EXPECT_GT(rec.freq_hz.size(), 100u); // the raw response is recorded
        EXPECT_EQ(rec.freq_hz.size(), rec.magnitude.size());
    }
    // The report JSON carries every value exactly.
    const farm::json_value report = farm::json_value::parse(report_bytes(spec, records));
    const auto& recs = report.at("records").items();
    ASSERT_EQ(recs.size(), records.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].at("index").as_index(), records[i].index);
        EXPECT_EQ(recs[i].at("zeta").as_number(), records[i].zeta);
        const auto& freq = recs[i].at("freq_hz").items();
        const auto& mag = recs[i].at("magnitude").items();
        ASSERT_EQ(freq.size(), records[i].freq_hz.size());
        ASSERT_EQ(mag.size(), records[i].magnitude.size());
        for (std::size_t k = 0; k < freq.size(); ++k) {
            EXPECT_EQ(freq[k].as_number(), records[i].freq_hz[k]);
            EXPECT_EQ(mag[k].as_number(), records[i].magnitude[k]);
        }
    }
}

TEST(farm_executor, tank_damping_tracks_the_param_axis)
{
    // A .param axis rebuilds the tank from its netlist text at every
    // point: zeta = sqrt(L/C) / (2 R) for the parallel tank.
    farm::campaign_spec spec = tank_campaign();
    spec.grid = {};
    const std::vector<real> zetas{0.1, 0.2, 0.4};
    core::param_axis rval{"rval", {}};
    for (const real zeta : zetas)
        rval.values.push_back(std::sqrt(25.3303e-6 / 1e-9) / (2.0 * zeta));
    spec.grid.axes = {rval};
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), zetas.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(records[i].status, farm::point_status::ok) << records[i].error;
        EXPECT_EQ(records[i].point.overrides.at("rval"), rval.values[i]);
        ASSERT_TRUE(records[i].has_peak);
        EXPECT_NEAR(records[i].zeta, zetas[i], 0.15 * zetas[i]);
        EXPECT_NEAR(records[i].fn_hz, 1e6, 0.05e6);
    }
}

/// The zero-TC bias reference of circuits::build_standalone_bias as
/// netlist text: same devices, models and node order.
constexpr const char* bias_netlist = R"(* zero-TC bias reference
.model bnpn npn is=1e-16 bf=150 br=2 vaf=80 cje=0.25p vje=0.75 mje=0.33
+ cjc=0.15p vjc=0.6 mjc=0.4 tf=0.35n tr=10n
.model bnpn8 npn is=8e-16 bf=150 br=2 vaf=80 cje=0.25p vje=0.75 mje=0.33
+ cjc=0.15p vjc=0.6 mjc=0.4 tf=0.35n tr=10n
.model bpnp pnp is=1e-16 bf=60 br=4 vaf=50 cje=0.3p vje=0.75 mje=0.33
+ cjc=0.25p vjc=0.6 mjc=0.4 tf=1.2n tr=30n
vdd_supply vdd 0 5
q1 b_vbe b_vbe 0 bnpn
q2 b_mir b_vbe b_e2 bnpn8
r2 b_e2 0 5.4k
q4 b_mir b_mir vdd bpnp
q3 b_vbe b_mir vdd bpnp
r1 b_vbe 0 200k
rstart vdd b_vbe 500k
cpar_mir b_mir 0 0.4p
cpar_vbe b_vbe 0 0.2p
rb7 b_mir b_fb 5.6k
q7 vdd b_fb b_ref bnpn
rpull b_ref 0 39k
cpar_rail b_ref 0 3.3p
q5 b_out b_vbe 0 bnpn
rload vdd b_out 100k
.end
)";

TEST(farm_executor, bias_temperature_campaign_matches_the_cpp_built_circuit)
{
    // The zero-TC reference's local loop must stay in the tens of MHz and
    // under-damped across the industrial temperature range, and the TEMP
    // axis must reach the junctions as the C++ builder's temperature does.
    farm::campaign_spec spec;
    spec.netlist = write_netlist("test_farm_bias.sp", bias_netlist);
    spec.node = "b_ref";
    spec.grid.temps = {-40.0, 27.0, 125.0};
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), 3u);
    for (const farm::point_record& rec : records) {
        const real temp = *rec.point.temp_celsius;
        ASSERT_EQ(rec.status, farm::point_status::ok) << "T=" << temp << ": " << rec.error;
        ASSERT_TRUE(rec.has_peak) << "T=" << temp;
        EXPECT_GT(rec.fn_hz, 2e7) << "T=" << temp;
        EXPECT_LT(rec.fn_hz, 1.2e8) << "T=" << temp;
        EXPECT_LT(rec.zeta, 0.7) << "T=" << temp;

        spice::circuit c;
        circuits::bias_params bp;
        bp.temp_celsius = temp;
        const std::string rail = circuits::build_standalone_bias(c, bp).rail;
        const core::node_stability built
            = core::stability_analyzer(c, spec.stability_options(1)).analyze_node(rail);
        ASSERT_TRUE(built.has_peak) << "T=" << temp;
        // Last-bit differences in the parsed values move the Newton path,
        // so the two agree to the DC tolerance; TEMP moves fn by ~10%.
        EXPECT_NEAR(rec.fn_hz, built.dominant.freq_hz, 1e-6 * built.dominant.freq_hz)
            << "T=" << temp;
        EXPECT_NEAR(rec.zeta, built.zeta, 1e-6) << "T=" << temp;
    }
}

TEST(farm_executor, dc_non_convergence_is_recorded_as_dc_failed)
{
    // A voltage source shorted by an inductor has no DC operating point:
    // the point is recorded as dc_failed, not thrown.
    farm::campaign_spec spec;
    spec.netlist = write_netlist("test_farm_dc_short.sp", "* shorted source\n"
                                                          "v1 a 0 dc 0 ac 1\n"
                                                          "l1 a 0 1m\n"
                                                          ".end\n");
    spec.node = "a";
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, farm::point_status::dc_failed);
    EXPECT_FALSE(records[0].error.empty());
    EXPECT_FALSE(records[0].has_peak);
    EXPECT_TRUE(records[0].freq_hz.empty());
}

TEST(farm_executor, pathological_corner_is_recorded_not_thrown)
{
    farm::campaign_spec spec = tank_campaign();
    spec.grid.temps.clear();
    spec.grid.axes.clear();
    spec.grid.corners = {{"dead", {{"rval", 0.0}}}, {"nominal", {}}};
    const std::vector<farm::point_record> records = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].status, farm::point_status::analysis_failed);
    EXPECT_NE(records[0].error.find("resistance"), std::string::npos);
    EXPECT_EQ(records[1].status, farm::point_status::ok);
    EXPECT_TRUE(records[1].has_peak);

    // The failure still reports and renders.
    const std::string table
        = farm::format_report(farm::json_value::parse(report_bytes(spec, records)));
    EXPECT_NE(table.find("failed"), std::string::npos);
    EXPECT_NE(table.find("corner=nominal"), std::string::npos);
}

// --- impedance campaigns ---------------------------------------------------

[[nodiscard]] farm::campaign_spec follower_impedance_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = std::string(ACSTAB_NETLIST_DIR) + "/follower.sp";
    spec.node = "f_out";
    spec.analysis = farm::campaign_analysis::impedance;
    spec.fstart = 1e5;
    spec.fstop = 1e10;
    spec.points_per_decade = 30;
    spec.grid.temps = {-40.0, 27.0, 125.0};
    return spec;
}

TEST(farm_campaign, impedance_spec_round_trips_through_json)
{
    farm::campaign_spec spec = follower_impedance_campaign();
    spec.source_elements = {"qf", "rsource"};
    const std::string bytes = farm::to_json(spec).dump();
    EXPECT_NE(bytes.find("\"analysis\":\"impedance\""), std::string::npos);
    const farm::campaign_spec back
        = farm::campaign_from_json(farm::json_value::parse(bytes));
    EXPECT_EQ(farm::to_json(back).dump(), bytes);
    EXPECT_EQ(back.analysis, farm::campaign_analysis::impedance);
    EXPECT_EQ(back.source_elements, (std::vector<std::string>{"qf", "rsource"}));

    // Stability plans must serialize WITHOUT the analysis member: their
    // bytes stay identical to pre-impedance builds, so old shard files
    // still pass the merge step's byte-exact campaign echo check, and
    // plans from older builds parse as stability campaigns.
    const farm::campaign_spec tank = tank_campaign();
    const std::string tank_bytes = farm::to_json(tank).dump();
    EXPECT_EQ(tank_bytes.find("analysis"), std::string::npos);
    EXPECT_EQ(campaign_from_json(farm::json_value::parse(tank_bytes)).analysis,
              farm::campaign_analysis::stability);
}

TEST(farm_executor, impedance_shards_merge_byte_identical_and_carry_verdicts)
{
    const farm::campaign_spec spec = follower_impedance_campaign();

    const std::vector<farm::point_record> all = farm::run_shard(spec, 0, 1);
    ASSERT_EQ(all.size(), 3u);
    for (const farm::point_record& rec : all) {
        ASSERT_EQ(rec.status, farm::point_status::ok);
        ASSERT_TRUE(rec.impedance.has_value());
        EXPECT_TRUE(rec.impedance->stable);
        EXPECT_EQ(rec.impedance->encirclements, 0);
        EXPECT_GT(rec.impedance->nyquist_margin, 0.0);
        EXPECT_EQ(rec.impedance->freq_hz.size(), rec.impedance->lm_re.size());
        EXPECT_EQ(rec.impedance->freq_hz.size(), rec.impedance->lm_im.size());
    }

    const std::string single = report_bytes(spec, all);
    const std::string a
        = write_stream("test_farm_imp_s0.jsonl", spec, 0, farm::run_shard(spec, 0, 2));
    const std::string b
        = write_stream("test_farm_imp_s1.jsonl", spec, 1, farm::run_shard(spec, 1, 2, 2));
    EXPECT_EQ(merged_bytes(spec, {a, b}, "test_farm_imp_merged.json"), single);

    // The report JSON carries the impedance payload exactly.
    const farm::json_value report = farm::json_value::parse(single);
    const auto& recs = report.at("records").items();
    ASSERT_EQ(recs.size(), all.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const farm::json_value& imp = recs[i].at("impedance");
        EXPECT_EQ(imp.at("stable").as_bool(), all[i].impedance->stable);
        const auto& re = imp.at("lm_re").items();
        const auto& im = imp.at("lm_im").items();
        ASSERT_EQ(re.size(), all[i].impedance->lm_re.size());
        ASSERT_EQ(im.size(), all[i].impedance->lm_im.size());
        for (std::size_t k = 0; k < re.size(); ++k) {
            EXPECT_EQ(re[k].as_number(), all[i].impedance->lm_re[k]);
            EXPECT_EQ(im[k].as_number(), all[i].impedance->lm_im[k]);
        }
    }

    // The table renderer understands impedance reports.
    const std::string table = farm::format_report(report);
    EXPECT_NE(table.find("impedance-campaign report"), std::string::npos);
    EXPECT_NE(table.find("stable"), std::string::npos);
}

TEST(farm_executor, merge_rejects_gaps_conflicts_and_foreign_shards)
{
    const farm::campaign_spec spec = tank_campaign();
    const std::vector<farm::point_record> s0 = farm::run_shard(spec, 0, 2);
    const std::string a = write_stream("test_farm_rej_s0.jsonl", spec, 0, s0);
    const std::string b
        = write_stream("test_farm_rej_s1.jsonl", spec, 1, farm::run_shard(spec, 1, 2));
    const std::string out = "test_farm_rej_merged.json";

    // Missing the second shard.
    EXPECT_THROW((void)farm::merge_shard_streams(spec, {a}, {}, out), analysis_error);
    // The same shard twice folds: its duplicates are byte-identical.
    EXPECT_EQ(merged_bytes(spec, {a, b, a}, out), farm_test::expected_report_bytes(spec));
    // A conflicting duplicate does not.
    farm::point_record changed = s0[0];
    changed.zeta += 1e-3;
    const std::string c = write_stream("test_farm_rej_c.jsonl", spec, 2, {changed});
    EXPECT_THROW((void)farm::merge_shard_streams(spec, {a, b, c}, {}, out), analysis_error);
    // Shard from a different campaign.
    farm::campaign_spec other = spec;
    other.points_per_decade = 17;
    EXPECT_THROW((void)farm::merge_shard_streams(other, {a, b}, {}, out), analysis_error);
}

} // namespace
