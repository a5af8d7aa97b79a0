// Netlist parser and expression evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "core/analyzer.h"
#include "spice/dc_analysis.h"
#include "spice/devices/bjt.h"
#include "spice/devices/mosfet.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/parser/expression.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;
using namespace acstab::spice;

// ---- expressions ---------------------------------------------------------

TEST(expression, arithmetic_and_precedence)
{
    parameter_table p;
    EXPECT_DOUBLE_EQ(evaluate_expression("1+2*3", p), 7.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("(1+2)*3", p), 9.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("2^3^2", p), 512.0); // right assoc
    EXPECT_DOUBLE_EQ(evaluate_expression("-2^2", p), -4.0);   // unary binds loose
    EXPECT_DOUBLE_EQ(evaluate_expression("10/4", p), 2.5);
    EXPECT_DOUBLE_EQ(evaluate_expression("--3", p), 3.0);
}

TEST(expression, spice_suffixes_inside_expressions)
{
    parameter_table p;
    EXPECT_DOUBLE_EQ(evaluate_expression("2k + 500", p), 2500.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("1meg/1k", p), 1000.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("10p*2", p), 20e-12);
}

TEST(expression, parameters_and_functions)
{
    parameter_table p{{"a", 3.0}, {"fc", 1e6}};
    EXPECT_DOUBLE_EQ(evaluate_expression("a*2", p), 6.0);
    EXPECT_NEAR(evaluate_expression("2*pi*fc", p), 6.283185e6, 1.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("sqrt(a*a)", p), 3.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("max(a, 10)", p), 10.0);
    EXPECT_DOUBLE_EQ(evaluate_expression("pow(a, 2)", p), 9.0);
    EXPECT_NEAR(evaluate_expression("exp(ln(a))", p), 3.0, 1e-12);
}

TEST(expression, error_cases)
{
    parameter_table p;
    EXPECT_THROW((void)evaluate_expression("1+", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("(1", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("unknown_var", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("nosuchfn(1)", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("1/0", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("sqrt(1,2)", p), parse_error);
    EXPECT_THROW((void)evaluate_expression("3 4", p), parse_error);
}

// ---- netlists ------------------------------------------------------------

TEST(parser, title_devices_and_values)
{
    const parsed_netlist net = parse_netlist(R"(resistive divider test
V1 in 0 10
R1 in mid 1k
R2 mid 0 3k
.op
.end
)");
    EXPECT_EQ(net.title, "resistive divider test");
    EXPECT_EQ(net.ckt.devices().size(), 3u);
    ASSERT_EQ(net.analyses.size(), 1u);
    EXPECT_EQ(net.analyses[0].kind, analysis_kind::op);

    circuit& c = const_cast<circuit&>(net.ckt);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "mid"), 7.5, 1e-9);
}

TEST(parser, case_insensitive_and_continuations)
{
    const parsed_netlist net = parse_netlist(R"(continuation test
V1 IN 0 DC 5
R1 IN
+ OUT
+ 2K
R2 OUT 0 2k
.end
)");
    const auto* r1 = dynamic_cast<const resistor*>(net.ckt.find_device("r1"));
    ASSERT_NE(r1, nullptr);
    EXPECT_DOUBLE_EQ(r1->resistance(), 2000.0);
    // IN and in are the same node.
    EXPECT_TRUE(net.ckt.find_node("in").has_value());
}

TEST(parser, comments_are_stripped)
{
    const parsed_netlist net = parse_netlist(R"(comment test
* a full-line comment
R1 a 0 1k ; trailing comment
R2 a 0 2k
.end
)");
    EXPECT_EQ(net.ckt.devices().size(), 2u);
}

TEST(parser, params_and_expressions)
{
    const parsed_netlist net = parse_netlist(R"(param test
.param rr = 2k  cc = {1/(2*pi*1meg*rr)}
R1 a 0 {rr}
C1 a 0 {cc}
.end
)");
    const auto* r1 = dynamic_cast<const resistor*>(net.ckt.find_device("r1"));
    const auto* c1 = dynamic_cast<const capacitor*>(net.ckt.find_device("c1"));
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(c1, nullptr);
    EXPECT_DOUBLE_EQ(r1->resistance(), 2000.0);
    EXPECT_NEAR(c1->capacitance(), 1.0 / (two_pi * 1e6 * 2e3), 1e-18);
}

TEST(parser, source_waveforms)
{
    const parsed_netlist net = parse_netlist(R"(sources
V1 a 0 DC 2.5 AC 1 45
V2 b 0 PULSE(0 5 1u 10n 10n 2u 10u)
V3 c 0 SIN(1 0.5 1meg)
I1 0 d PWL(0 0 1u 1m 2u 0)
V4 e 0 STEP(0 1 1u 10n)
.end
)");
    const auto* v1 = dynamic_cast<const vsource*>(net.ckt.find_device("v1"));
    ASSERT_NE(v1, nullptr);
    EXPECT_DOUBLE_EQ(v1->spec().dc, 2.5);
    EXPECT_DOUBLE_EQ(v1->spec().ac_mag, 1.0);
    EXPECT_DOUBLE_EQ(v1->spec().ac_phase_deg, 45.0);

    const auto* v2 = dynamic_cast<const vsource*>(net.ckt.find_device("v2"));
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(v2->spec().kind, waveform_kind::pulse);
    EXPECT_DOUBLE_EQ(v2->spec().value_at(0.5e-6), 0.0);
    EXPECT_DOUBLE_EQ(v2->spec().value_at(2e-6), 5.0);

    const auto* v3 = dynamic_cast<const vsource*>(net.ckt.find_device("v3"));
    ASSERT_NE(v3, nullptr);
    EXPECT_EQ(v3->spec().kind, waveform_kind::sine);

    const auto* i1 = dynamic_cast<const isource*>(net.ckt.find_device("i1"));
    ASSERT_NE(i1, nullptr);
    EXPECT_EQ(i1->spec().kind, waveform_kind::pwl);
    EXPECT_NEAR(i1->spec().value_at(0.5e-6), 0.5e-3, 1e-12);

    const auto* v4 = dynamic_cast<const vsource*>(net.ckt.find_device("v4"));
    ASSERT_NE(v4, nullptr);
    EXPECT_DOUBLE_EQ(v4->spec().value_at(2e-6), 1.0);
}

TEST(parser, models_feed_devices)
{
    const parsed_netlist net = parse_netlist(R"(model test
.model mynpn NPN (is=2e-16 bf=80 vaf=60 tf=0.4n)
.model mynmos NMOS (vto=0.6 kp=120u lambda=0.03)
.model mydiode D (is=1e-15 n=1.5 cjo=2p)
Q1 c b 0 mynpn
M1 d g 0 0 mynmos W=20u L=2u
D1 a k mydiode
.end
)");
    const auto* q1 = dynamic_cast<const bjt*>(net.ckt.find_device("q1"));
    ASSERT_NE(q1, nullptr);
    EXPECT_DOUBLE_EQ(q1->model().is, 2e-16);
    EXPECT_DOUBLE_EQ(q1->model().bf, 80.0);
    EXPECT_DOUBLE_EQ(q1->model().vaf, 60.0);
    EXPECT_DOUBLE_EQ(q1->model().tf, 0.4e-9);

    const auto* m1 = dynamic_cast<const mosfet*>(net.ckt.find_device("m1"));
    ASSERT_NE(m1, nullptr);
    EXPECT_DOUBLE_EQ(m1->model().vto, 0.6);
    EXPECT_DOUBLE_EQ(m1->model().kp, 120e-6);
    EXPECT_DOUBLE_EQ(m1->width(), 20e-6);
    EXPECT_DOUBLE_EQ(m1->length(), 2e-6);
}

TEST(parser, subcircuit_expansion)
{
    const parsed_netlist net = parse_netlist(R"(subckt test
.subckt divider top bottom mid
R1 top mid 1k
R2 mid bottom 1k
.ends
V1 in 0 8
X1 in 0 half divider
X2 half 0 quarter divider
.end
)");
    // Devices are flattened with instance prefixes.
    EXPECT_NE(net.ckt.find_device("x1.r1"), nullptr);
    EXPECT_NE(net.ckt.find_device("x2.r2"), nullptr);
    circuit& c = const_cast<circuit&>(net.ckt);
    const dc_result op = dc_operating_point(c);
    // Loaded divider chain: V(half) = 8 * (2k || 2k + ...)—solve directly:
    // half sees 1k to in, 1k to gnd, and X2's 2k to gnd in parallel.
    const real vhalf = node_voltage(c, op.solution, "half");
    EXPECT_NEAR(vhalf, 8.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0), 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "quarter"), vhalf / 2.0, 1e-9);
}

TEST(parser, controlled_sources_and_stability_card)
{
    const parsed_netlist net = parse_netlist(R"(controlled test
VS a 0 1
RA a 0 1k
E1 e 0 a 0 2
RE e 0 1k
F1 0 f vs 3
RF f 0 1k
.stability e 1k 1g 40
.stability all
.end
)");
    ASSERT_EQ(net.analyses.size(), 2u);
    EXPECT_EQ(net.analyses[0].kind, analysis_kind::stability_node);
    EXPECT_EQ(net.analyses[0].node, "e");
    EXPECT_DOUBLE_EQ(net.analyses[0].fstart, 1e3);
    EXPECT_DOUBLE_EQ(net.analyses[0].fstop, 1e9);
    EXPECT_EQ(net.analyses[0].points_per_decade, 40u);
    EXPECT_EQ(net.analyses[1].kind, analysis_kind::stability_all);

    circuit& c = const_cast<circuit&>(net.ckt);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "e"), 2.0, 1e-9);
    // I(vs) = -1 mA (plus-to-minus through the source); F injects
    // gain * I(vs) = -3 mA into f.
    EXPECT_NEAR(node_voltage(c, op.solution, "f"), -3.0, 1e-9);
}

TEST(parser, ac_and_tran_cards)
{
    const parsed_netlist net = parse_netlist(R"(cards
R1 a 0 1k
.ac dec 20 1k 1meg
.tran 1n 10u
.end
)");
    ASSERT_EQ(net.analyses.size(), 2u);
    EXPECT_EQ(net.analyses[0].kind, analysis_kind::ac);
    EXPECT_EQ(net.analyses[0].points_per_decade, 20u);
    EXPECT_DOUBLE_EQ(net.analyses[1].dt, 1e-9);
    EXPECT_DOUBLE_EQ(net.analyses[1].tstop, 10e-6);
}

TEST(parser, end_to_end_stability_from_netlist)
{
    // Full pipeline: text -> circuit -> stability plot.
    parsed_netlist net = parse_netlist(R"(tank from text
.param fn = 1meg  zeta = 0.25  c = 1n
.param wn = {2*pi*fn}
R1 tank 0 {sqrt(1/(wn^2*c)/c)/(2*zeta)}
L1 tank 0 {1/(wn^2*c)}
C1 tank 0 {c}
.end
)");
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    opt.sweep.points_per_decade = 60;
    core::stability_analyzer an(net.ckt, opt);
    const core::node_stability ns = an.analyze_node("tank");
    ASSERT_TRUE(ns.has_peak);
    EXPECT_NEAR(ns.dominant.freq_hz, 1e6, 2e4);
    EXPECT_NEAR(ns.zeta, 0.25, 0.01);
}

TEST(parser, error_reporting_with_line_numbers)
{
    const auto expect_line = [](const char* text, int line) {
        try {
            (void)parse_netlist(text);
            FAIL() << "expected parse_error";
        } catch (const parse_error& e) {
            EXPECT_EQ(e.line(), line) << e.what();
        }
    };
    expect_line("t\nR1 a 0\n.end\n", 2);              // missing value
    expect_line("t\nR1 a 0 1k\nD1 a 0 nomodel\n", 3); // unknown model
    expect_line("t\nR1 a 0 1k\nZ1 a 0 1k\n", 3);      // unknown device
    expect_line("t\nX1 a b nosub\n", 2);              // unknown subckt
    expect_line("t\n.subckt s a\nR1 a 0 1k\n", -1);   // unterminated subckt
    expect_line("t\n.ac oct 10 1 2\n", 2);            // unsupported sweep
}

TEST(parser, non_finite_values_rejected_with_line)
{
    const auto expect_line = [](const char* text, int line) {
        try {
            (void)parse_netlist(text);
            FAIL() << "expected parse_error";
        } catch (const parse_error& e) {
            EXPECT_EQ(e.line(), line) << e.what();
            EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
        }
    };
    expect_line("t\nv1 1 0 nan\nr1 1 0 1k\n.end\n", 2);
    expect_line("t\nv1 1 0 1\nr1 1 0 inf\n.end\n", 3);
    expect_line("t\n.param a = nan\nr1 1 0 {a}\n.end\n", 2);
    expect_line("t\n.subckt s p\nc1 p 0 -inf\n.ends\nv1 1 0 1\nx1 1 s\n.end\n", 3);
}

TEST(parser, names_beginning_with_inf_or_nan_stay_names)
{
    // from_chars reads "inf"/"nan" off the front of these; the rest of
    // the token makes them names, never non-finite numbers.
    const parsed_netlist net = parse_netlist("t\n.param inf_x = 2\n.param g = inf_x\n"
                                             "v1 nan_1 0 1\nr1 nan_1 0 {g}\n"
                                             ".stability nan_1 1k 1g\n.end\n");
    EXPECT_DOUBLE_EQ(net.parameters.at("g"), 2.0);
    ASSERT_EQ(net.analyses.size(), 1u);
    EXPECT_EQ(net.analyses.front().node, "nan_1");
}

TEST(parser, expression_depth_is_bounded)
{
    // Nesting this deep used to overflow the stack of the recursive
    // evaluator; it must be a located parse error instead.
    const auto netlist = [](std::size_t depth, char open) {
        const std::string close = open == '(' ? std::string(depth, ')') : std::string();
        return "t\n.param x={" + std::string(depth, open) + "2" + close
            + "}\nv1 1 0 1\nr1 1 0 {x}\n.end\n";
    };
    for (const char open : {'(', '-'}) {
        try {
            (void)parse_netlist(netlist(20000, open));
            FAIL() << "20k-deep expression must be rejected";
        } catch (const parse_error& e) {
            EXPECT_EQ(e.line(), 2) << e.what();
            EXPECT_NE(std::string(e.what()).find("nested deeper"), std::string::npos);
        }
    }
    EXPECT_NO_THROW((void)parse_netlist(netlist(200, '(')));
    EXPECT_DOUBLE_EQ(parse_netlist(netlist(200, '-')).parameters.at("x"), 2.0);
}

TEST(parser, duplicate_and_malformed)
{
    EXPECT_THROW((void)parse_netlist("t\nR1 a 0 1k\nR1 a 0 2k\n"), circuit_error);
    EXPECT_THROW((void)parse_netlist("t\nR1 a 0 {1+}\n"), parse_error);
    EXPECT_THROW((void)parse_netlist("t\nV1 a 0 PULSE(1 2)\n"), parse_error);
}

TEST(parser, file_not_found)
{
    EXPECT_THROW((void)parse_netlist_file("/nonexistent/netlist.sp"), parse_error);
}

TEST(parser, subcircuit_port_count_mismatch_is_actionable)
{
    // The diagnostic names the subcircuit and both counts, so a miswired
    // X line is fixable from the message alone.
    try {
        (void)parse_netlist(R"(t
.subckt divider top bottom mid
R1 top mid 1k
R2 mid bottom 1k
.ends
X1 in 0 divider
.end
)");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("subcircuit 'divider' expects 3 nodes, got 2"),
                  std::string::npos)
            << msg;
        EXPECT_EQ(e.line(), 6);
    }
}

TEST(parser, subcircuit_instantiation_cycle_is_rejected)
{
    // A subcircuit that instantiates itself recurses through expand_subckt;
    // the depth cap turns the infinite recursion into a parse error.
    try {
        (void)parse_netlist(R"(t
.subckt loop a
R1 a b 1k
X1 b loop
.ends
X1 top loop
.end
)");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("nesting too deep"), std::string::npos) << msg;
    }
}

TEST(parser, hierarchical_node_names_survive_flattening)
{
    // Inner nodes keep their instance-qualified names ("x1.mid"), so
    // stability reports and farm records over subcircuit internals stay
    // addressable; ports alias the caller's nodes and get no copy.
    const parsed_netlist net = parse_netlist(R"(t
.subckt divider top bottom
R1 top mid 1k
R2 mid bottom 1k
.ends
V1 in 0 1
X1 in 0 divider
X2 in 0 divider
.end
)");
    EXPECT_TRUE(net.ckt.find_node("x1.mid").has_value());
    EXPECT_TRUE(net.ckt.find_node("x2.mid").has_value());
    EXPECT_FALSE(net.ckt.find_node("x1.top").has_value()); // port, not a copy
}

} // namespace
