// The stability analyzer: single-node and all-nodes modes, linearity
// invariances, loop grouping, reports.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/rlc.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "spice/circuit.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"

namespace {

using namespace acstab;
using namespace acstab::core;

stability_options tank_options()
{
    stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.sweep.points_per_decade = 50;
    return opt;
}

TEST(analyzer, rlc_tank_single_node)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.25, 2e6);
    stability_analyzer an(c, tank_options());
    const node_stability ns = an.analyze_node("tank");
    ASSERT_TRUE(ns.has_peak);
    EXPECT_TRUE(ns.is_underdamped);
    EXPECT_NEAR(ns.dominant.freq_hz, 2e6, 0.04e6);
    EXPECT_NEAR(ns.dominant.value, -16.0, 0.8);
    EXPECT_NEAR(ns.zeta, 0.25, 0.01);
    EXPECT_NEAR(ns.phase_margin_est_deg, 25.0, 1.0);
}

TEST(analyzer, below_four_points_per_decade_throws_on_both_grids)
{
    // The adaptive path used to skip the grid's density guard and report
    // a wrong damping ratio at 2 points/decade.
    for (const bool adaptive : {false, true}) {
        spice::circuit c;
        circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
        stability_options opt = tank_options();
        opt.sweep.points_per_decade = 2;
        opt.adaptive = adaptive;
        stability_analyzer an(c, opt);
        EXPECT_THROW((void)an.analyze_node("tank"), analysis_error) << adaptive;
        EXPECT_THROW((void)an.analyze_all_nodes(), analysis_error) << adaptive;
    }
}

TEST(analyzer, stimulus_amplitude_invariance)
{
    // Linearity: the stability plot cannot depend on the stimulus size.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    stability_options opt = tank_options();
    opt.stimulus_amps = 1.0;
    stability_analyzer a1(c, opt);
    const node_stability n1 = a1.analyze_node("tank");
    opt.stimulus_amps = 1e-6;
    stability_analyzer a2(c, opt);
    const node_stability n2 = a2.analyze_node("tank");
    ASSERT_TRUE(n1.has_peak);
    ASSERT_TRUE(n2.has_peak);
    EXPECT_NEAR(n1.dominant.value, n2.dominant.value, 1e-6 * std::fabs(n1.dominant.value));
    EXPECT_NEAR(n1.dominant.freq_hz, n2.dominant.freq_hz, 1.0);
}

TEST(analyzer, impedance_scaling_invariance)
{
    // Scaling all impedances by k leaves zeta and fn unchanged.
    const auto run = [](real c_farads) {
        spice::circuit c;
        circuits::add_parallel_rlc_tank(c, "tank", 0.3, 1e6, c_farads);
        stability_analyzer an(c, tank_options());
        return an.analyze_node("tank");
    };
    const node_stability a = run(1e-9);
    const node_stability b = run(1e-7);
    ASSERT_TRUE(a.has_peak);
    ASSERT_TRUE(b.has_peak);
    EXPECT_NEAR(a.dominant.value, b.dominant.value, 0.02 * std::fabs(a.dominant.value));
    EXPECT_NEAR(a.dominant.freq_hz, b.dominant.freq_hz, 0.01 * a.dominant.freq_hz);
}

TEST(analyzer, single_node_and_all_nodes_agree)
{
    // The probe-insertion path and the factored multi-RHS path are
    // algebraically identical; their results must match tightly.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    stability_analyzer an(c, tank_options());
    const node_stability single = an.analyze_node("tank");
    const stability_report all = an.analyze_all_nodes();
    ASSERT_TRUE(single.has_peak);
    ASSERT_EQ(all.nodes.size(), 1u);
    ASSERT_TRUE(all.nodes[0].has_peak);
    EXPECT_NEAR(single.dominant.value, all.nodes[0].dominant.value,
                1e-9 * std::fabs(single.dominant.value));
    EXPECT_NEAR(single.dominant.freq_hz, all.nodes[0].dominant.freq_hz, 1e-3);
}

TEST(analyzer, parallel_threads_match_serial)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "t1", 0.2, 1e5);
    circuits::add_parallel_rlc_tank(c, "t2", 0.4, 1e7);
    stability_options opt = tank_options();
    opt.threads = 1;
    stability_analyzer serial(c, opt);
    const stability_report r1 = serial.analyze_all_nodes();
    opt.threads = 4;
    stability_analyzer parallel(c, opt);
    const stability_report r2 = parallel.analyze_all_nodes();
    ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
    for (std::size_t i = 0; i < r1.nodes.size(); ++i) {
        EXPECT_EQ(r1.nodes[i].node, r2.nodes[i].node);
        EXPECT_NEAR(r1.nodes[i].dominant.value, r2.nodes[i].dominant.value, 1e-12);
    }
}

TEST(analyzer, two_tanks_grouped_into_two_loops)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "t1", 0.2, 1e5);
    circuits::add_parallel_rlc_tank(c, "t2", 0.4, 1e7);
    stability_analyzer an(c, tank_options());
    const stability_report rep = an.analyze_all_nodes();
    ASSERT_EQ(rep.nodes.size(), 2u);
    ASSERT_EQ(rep.loops.size(), 2u);
    EXPECT_NEAR(rep.loops[0].freq_hz, 1e5, 3e3);
    EXPECT_NEAR(rep.loops[1].freq_hz, 1e7, 3e5);
    // Sorted ascending by natural frequency like the paper's Table 2.
    EXPECT_EQ(rep.nodes[rep.loops[0].members[0]].node, "t1");
    EXPECT_EQ(rep.nodes[rep.loops[1].members[0]].node, "t2");
}

TEST(analyzer, rows_printing_the_same_frequency_are_ordered_by_name)
{
    // Tank a rings a hair above tank b: their natural frequencies differ
    // past the 6th significant digit, which the CSV does not print, so the
    // rows come in name order instead of in the order of unprinted digits.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "b", 0.2, 1e6);
    circuits::add_parallel_rlc_tank(c, "a", 0.2, 1e6 * (1.0 + 1e-7));
    stability_analyzer an(c, tank_options());
    const stability_report rep = an.analyze_all_nodes();
    ASSERT_EQ(rep.nodes.size(), 2u);
    ASSERT_TRUE(rep.nodes[0].has_peak && rep.nodes[1].has_peak);
    EXPECT_EQ(rep.nodes[0].node, "a");
    EXPECT_EQ(rep.nodes[1].node, "b");
    ASSERT_GT(rep.nodes[0].dominant.freq_hz, rep.nodes[1].dominant.freq_hz);

    // Both rows print the same frequency field.
    std::istringstream csv(format_csv(rep));
    std::string line;
    std::vector<std::string> freq_fields;
    std::getline(csv, line); // header
    while (std::getline(csv, line)) {
        std::istringstream fields(line);
        std::string field;
        for (int k = 0; k < 3; ++k)
            std::getline(fields, field, ',');
        freq_fields.push_back(field);
    }
    ASSERT_EQ(freq_fields.size(), 2u);
    EXPECT_EQ(freq_fields[0], freq_fields[1]);
}

TEST(analyzer, coupled_tank_nodes_group_into_one_loop)
{
    // Two nodes of the same physical loop (tank + series-R tap) must land
    // in the same frequency group.
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    const spice::node_id tap = c.node("tap");
    c.add<spice::resistor>("rtap", *c.find_node("tank"), tap, 10.0);
    c.add<spice::capacitor>("ctap", tap, spice::ground_node, 1e-13);
    stability_analyzer an(c, tank_options());
    const stability_report rep = an.analyze_all_nodes();
    ASSERT_EQ(rep.nodes.size(), 2u);
    ASSERT_EQ(rep.loops.size(), 1u);
    EXPECT_EQ(rep.loops[0].members.size(), 2u);
}

TEST(analyzer, forced_nodes_are_skipped)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    const spice::node_id vin = c.node("vin");
    c.add<spice::vsource>("v1", vin, spice::ground_node, 1.0);
    c.add<spice::resistor>("rb", vin, *c.find_node("tank"), 1e6);
    stability_analyzer an(c, tank_options());
    const stability_report rep = an.analyze_all_nodes();
    ASSERT_EQ(rep.skipped_nodes.size(), 1u);
    EXPECT_EQ(rep.skipped_nodes[0], "vin");
    EXPECT_THROW((void)an.analyze_node("nope"), analysis_error);
    EXPECT_THROW((void)an.analyze_node("0"), analysis_error);
}

TEST(analyzer, probe_is_removed_after_run)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.2, 1e6);
    stability_analyzer an(c, tank_options());
    const std::size_t before = c.devices().size();
    (void)an.analyze_node("tank");
    EXPECT_EQ(c.devices().size(), before);
}

TEST(analyzer, group_loops_tolerance)
{
    std::vector<node_stability> nodes(3);
    for (auto& n : nodes) {
        n.has_peak = true;
        n.dominant.kind = peak_kind::complex_pole;
    }
    nodes[0].dominant.freq_hz = 1.00e6;
    nodes[0].dominant.value = -10.0;
    nodes[1].dominant.freq_hz = 1.08e6;
    nodes[1].dominant.value = -8.0;
    nodes[2].dominant.freq_hz = 2.0e6;
    nodes[2].dominant.value = -4.0;
    const auto loops = group_loops(nodes, 0.12);
    ASSERT_EQ(loops.size(), 2u);
    EXPECT_EQ(loops[0].members.size(), 2u);
    EXPECT_EQ(loops[1].members.size(), 1u);
    // Representative frequency is the strongest member's fn.
    EXPECT_NEAR(loops[0].freq_hz, 1.00e6, 1.0);
}

TEST(report, all_nodes_text_contains_loops_and_flags)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "t1", 0.2, 1e5);
    circuits::add_parallel_rlc_tank(c, "t2", 0.4, 1e7);
    stability_analyzer an(c, tank_options());
    const stability_report rep = an.analyze_all_nodes();
    const std::string text = format_all_nodes_report(rep);
    EXPECT_NE(text.find("Loop at 100"), std::string::npos);
    EXPECT_NE(text.find("Loop at 10M"), std::string::npos);
    EXPECT_NE(text.find("t1"), std::string::npos);
    EXPECT_NE(text.find("t2"), std::string::npos);

    const std::string csv = format_csv(rep);
    EXPECT_NE(csv.find("node,peak,natural_frequency_hz"), std::string::npos);
    EXPECT_NE(csv.find("t1,"), std::string::npos);

    const std::string annotated = annotate_circuit(c, rep);
    EXPECT_NE(annotated.find("r_t1"), std::string::npos);
    EXPECT_NE(annotated.find("P="), std::string::npos);

    const std::string summary = format_node_summary(rep.nodes[0]);
    EXPECT_NE(summary.find("performance index"), std::string::npos);
    EXPECT_NE(summary.find("damping ratio"), std::string::npos);
}

} // namespace
