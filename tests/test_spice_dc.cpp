// DC operating-point analysis: linear networks with closed-form answers,
// nonlinear bias points, continuation fallbacks and failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "circuits/bias.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/devices/bjt.h"
#include "spice/devices/controlled.h"
#include "spice/devices/diode.h"
#include "spice/devices/junction.h"
#include "spice/devices/mosfet.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;
using namespace acstab::spice;

[[nodiscard]] parsed_netlist follower()
{
    return parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/follower.sp");
}

TEST(dc, resistor_divider)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id mid = c.node("mid");
    c.add<vsource>("v1", in, ground_node, 10.0);
    c.add<resistor>("r1", in, mid, 1e3);
    c.add<resistor>("r2", mid, ground_node, 3e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "mid"), 7.5, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "in"), 10.0, 1e-12);
}

TEST(dc, vsource_branch_current)
{
    circuit c;
    const node_id in = c.node("in");
    auto& v1 = c.add<vsource>("v1", in, ground_node, 5.0);
    c.add<resistor>("r1", in, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    // Current flows plus->through source->minus: -5 mA out of the source.
    EXPECT_NEAR(op.solution[static_cast<std::size_t>(v1.branch())], -5e-3, 1e-9);
}

TEST(dc, current_source_into_resistor)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 2e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "n"), 2.0, 1e-9);
}

TEST(dc, inductor_is_short_capacitor_is_open)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id b = c.node("b");
    const node_id d = c.node("d");
    c.add<vsource>("v1", a, ground_node, 4.0);
    c.add<inductor>("l1", a, b, 1e-3);
    c.add<resistor>("r1", b, ground_node, 1e3);
    c.add<capacitor>("c1", b, d, 1e-9);
    c.add<resistor>("r2", d, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "b"), 4.0, 1e-9);  // short
    EXPECT_NEAR(node_voltage(c, op.solution, "d"), 0.0, 1e-6);  // open
}

TEST(dc, controlled_sources)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id e_out = c.node("eo");
    const node_id g_out = c.node("go");
    c.add<vsource>("v1", in, ground_node, 2.0);
    c.add<resistor>("rin", in, ground_node, 1e6);
    c.add<vcvs>("e1", e_out, ground_node, in, ground_node, 3.0);
    c.add<resistor>("re", e_out, ground_node, 1e3);
    c.add<vccs>("gm1", ground_node, g_out, in, ground_node, 1e-3);
    c.add<resistor>("rg", g_out, ground_node, 2e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_NEAR(node_voltage(c, op.solution, "eo"), 6.0, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "go"), 4.0, 1e-9); // 2 mA * 2 k
}

TEST(dc, current_controlled_sources)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id f_out = c.node("fo");
    const node_id h_out = c.node("ho");
    c.add<vsource>("vsense", a, ground_node, 1.0);
    c.add<resistor>("ra", a, ground_node, 1e3); // sense current -1 mA through vsense
    c.add<cccs>("f1", ground_node, f_out, "vsense", 2.0);
    c.add<resistor>("rf", f_out, ground_node, 1e3);
    c.add<ccvs>("h1", h_out, ground_node, "vsense", 4e3);
    c.add<resistor>("rh", h_out, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    // vsense branch current = -1 mA (see vsource_branch_current).
    EXPECT_NEAR(node_voltage(c, op.solution, "fo"), -2.0, 1e-9);
    EXPECT_NEAR(node_voltage(c, op.solution, "ho"), -4.0, 1e-9);
}

TEST(dc, diode_forward_drop)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<vsource>("v1", a, ground_node, 5.0);
    const node_id k = c.node("k");
    c.add<resistor>("r1", a, k, 10e3);
    diode_model dm;
    dm.is = 1e-14;
    c.add<diode>("d1", k, ground_node, dm);
    const dc_result op = dc_operating_point(c);
    const real vd = node_voltage(c, op.solution, "k");
    EXPECT_GT(vd, 0.5);
    EXPECT_LT(vd, 0.75);
    // KCL: resistor current equals diode current.
    const real ir = (5.0 - vd) / 10e3;
    const real id = dm.is * (std::exp(vd / thermal_voltage()) - 1.0);
    EXPECT_NEAR(ir, id, ir * 2e-3);
}

TEST(dc, diode_reverse_blocks)
{
    circuit c;
    const node_id a = c.node("a");
    c.add<vsource>("v1", a, ground_node, -5.0);
    const node_id k = c.node("k");
    c.add<resistor>("r1", a, k, 10e3);
    c.add<diode>("d1", k, ground_node);
    const dc_result op = dc_operating_point(c);
    // Almost the full -5 V appears across the diode.
    EXPECT_LT(node_voltage(c, op.solution, "k"), -4.99);
}

TEST(dc, bjt_current_mirror_ratio)
{
    circuit c;
    const node_id vcc = c.node("vcc");
    const node_id ref = c.node("ref");
    const node_id out = c.node("out");
    c.add<vsource>("vcc_s", vcc, ground_node, 5.0);
    c.add<isource>("iref", vcc, ref, 100e-6);
    bjt_model npn;
    npn.is = 1e-16;
    npn.bf = 200.0;
    c.add<bjt>("q1", ref, ref, ground_node, npn);
    bjt_model npn2 = npn;
    npn2.is = 2e-16; // 2x area
    c.add<bjt>("q2", out, ref, ground_node, npn2);
    c.add<resistor>("rl", vcc, out, 10e3);
    const dc_result op = dc_operating_point(c);
    // Mirror doubles the current: V(out) = 5 - 0.2 mA * 10 k = 3 V.
    EXPECT_NEAR(node_voltage(c, op.solution, "out"), 3.0, 0.1);
}

TEST(dc, mosfet_saturation_current)
{
    circuit c;
    const node_id vdd = c.node("vdd");
    const node_id g = c.node("g");
    const node_id d = c.node("d");
    c.add<vsource>("vdd_s", vdd, ground_node, 5.0);
    c.add<vsource>("vg", g, ground_node, 1.5);
    mosfet_model nm;
    nm.vto = 0.7;
    nm.kp = 100e-6;
    nm.lambda = 0.0;
    nm.gamma = 0.0;
    c.add<mosfet>("m1", d, g, ground_node, ground_node, nm, 20e-6, 2e-6);
    c.add<resistor>("rd", vdd, d, 10e3);
    const dc_result op = dc_operating_point(c);
    // id = 0.5*kp*(W/L)*(vgs-vth)^2 = 0.5*1e-4*10*0.64 = 320 uA.
    EXPECT_NEAR(node_voltage(c, op.solution, "d"), 5.0 - 0.32e-3 * 1e4, 0.02);
}

TEST(dc, pmos_source_follower_polarity)
{
    circuit c;
    const node_id vdd = c.node("vdd");
    const node_id g = c.node("g");
    const node_id s = c.node("s");
    c.add<vsource>("vdd_s", vdd, ground_node, 5.0);
    c.add<vsource>("vg", g, ground_node, 2.5);
    mosfet_model pm;
    pm.polarity = mos_polarity::pmos;
    pm.vto = 0.8;
    pm.kp = 50e-6;
    pm.lambda = 0.0;
    pm.gamma = 0.0;
    // PMOS with source pulled down by a resistor: source settles about
    // one |vgs| above the gate.
    c.add<mosfet>("mp", ground_node, g, s, vdd, pm, 50e-6, 1e-6);
    c.add<resistor>("rs", vdd, s, 10e3);
    const dc_result op = dc_operating_point(c);
    const real vs = node_voltage(c, op.solution, "s");
    EXPECT_GT(vs, 3.3);
    EXPECT_LT(vs, 3.9);
}

TEST(dc, floating_node_resolved_by_gshunt_retry)
{
    circuit c;
    const node_id a = c.node("a");
    const node_id fl = c.node("floating");
    c.add<vsource>("v1", a, ground_node, 1.0);
    c.add<resistor>("r1", a, ground_node, 1e3);
    // This node only connects through a capacitor: singular at DC.
    c.add<capacitor>("c1", a, fl, 1e-12);
    const dc_result op = dc_operating_point(c);
    EXPECT_TRUE(op.used_gshunt);
    EXPECT_NEAR(node_voltage(c, op.solution, "a"), 1.0, 1e-9);
}

TEST(dc, bias_generator_needs_continuation)
{
    // The self-biased reference has a zero-current equilibrium; plain
    // Newton from zero lands there or fails, so continuation must engage
    // and find the intended ~10 uA state.
    circuit c;
    circuits::build_standalone_bias(c);
    const dc_result op = dc_operating_point(c);
    const real vbe = node_voltage(c, op.solution, "b_vbe");
    EXPECT_GT(vbe, 0.55);
    EXPECT_LT(vbe, 0.75);
}

TEST(dc, non_convergence_error_reports_the_attempted_ladder)
{
    // Two ideal sources forcing different voltages onto one node: the MNA
    // system is inconsistent at every continuation rung, so the whole
    // ladder runs dry. The error must say what was tried — each rung's
    // gshunt value and where its Newton loop gave up — not just "did not
    // converge".
    circuit c;
    const node_id n = c.node("n");
    c.add<vsource>("v1", n, ground_node, 1.0);
    c.add<vsource>("v2", n, ground_node, 2.0);
    try {
        (void)dc_operating_point(c);
        FAIL() << "conflicting sources must not converge";
    } catch (const convergence_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("attempted:"), std::string::npos) << what;
        EXPECT_NE(what.find("plain Newton (gshunt=0)"), std::string::npos) << what;
        EXPECT_NE(what.find("gshunt=1e-09"), std::string::npos) << what;
        EXPECT_NE(what.find("singular matrix"), std::string::npos) << what;
        EXPECT_NE(what.find("gmin stepping"), std::string::npos) << what;
        EXPECT_NE(what.find("source stepping"), std::string::npos) << what;
    }
}

TEST(dc, non_finite_solution_never_converges)
{
    // A NaN update fails every "delta > tol" test, so it once counted as
    // converged. Every rung must now reject it by name.
    circuit c;
    const node_id n = c.node("n");
    c.add<vsource>("v1", n, ground_node, std::nan(""));
    c.add<resistor>("r1", n, ground_node, 1e3);
    try {
        (void)dc_operating_point(c);
        FAIL() << "a NaN source must not converge";
    } catch (const convergence_error& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite solution"), std::string::npos)
            << e.what();
    }
}

TEST(dc, ladder_reports_disabled_strategies)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<vsource>("v1", n, ground_node, 1.0);
    c.add<vsource>("v2", n, ground_node, 2.0);
    dc_options opt;
    opt.allow_gmin_stepping = false;
    opt.allow_source_stepping = false;
    try {
        (void)dc_operating_point(c, opt);
        FAIL() << "conflicting sources must not converge";
    } catch (const convergence_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("gmin stepping: disabled"), std::string::npos) << what;
        EXPECT_NE(what.find("source stepping: disabled"), std::string::npos) << what;
    }
}

TEST(dc, tolerances_are_respected)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 1e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    dc_options opt;
    opt.max_iterations = 3; // linear: converges immediately regardless
    const dc_result op = dc_operating_point(c, opt);
    EXPECT_LE(op.iterations, 3);
}

TEST(dc, engaged_limiter_never_counts_as_converged)
{
    // With the node step limit off, only pnjlim bounds the BJT's first
    // iterations on follower.sp. An iteration whose limiter moved a
    // junction voltage used to pass the tolerance test and return
    // V(f_out) = -9.96e8 V after 2 iterations.
    parsed_netlist ref = follower();
    const dc_result def = dc_operating_point(ref.ckt);
    const real v_ref = node_voltage(ref.ckt, def.solution, "f_out");

    parsed_netlist net = follower();
    dc_options opt;
    opt.max_step = 0.0;
    const dc_result op = dc_operating_point(net.ckt, opt);
    EXPECT_NEAR(node_voltage(net.ckt, op.solution, "f_out"), v_ref,
                opt.reltol * std::fabs(v_ref));
}

TEST(dc, dense_oracle_matches_the_shared_solver)
{
    // The returned point is polished to roundoff, so it does not depend
    // on the linear solver. With the whole update scaled by the branch
    // current's swing, the dense path once stalled at V(f_out) = 0.776 V
    // and failed every rung.
    parsed_netlist a = follower();
    const dc_result shared = dc_operating_point(a.ckt);
    parsed_netlist b = follower();
    dc_options opt;
    opt.solver = solver_kind::dense;
    const dc_result dense = dc_operating_point(b.ckt, opt);

    ASSERT_EQ(shared.solution.size(), dense.solution.size());
    real scale = 0.0;
    real diff = 0.0;
    for (std::size_t i = 0; i < shared.solution.size(); ++i) {
        scale = std::max(scale, std::fabs(shared.solution[i]));
        diff = std::max(diff, std::fabs(shared.solution[i] - dense.solution[i]));
    }
    EXPECT_LE(diff, 1e-12 * scale);
}

TEST(dc, unknown_node_query_throws)
{
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, 1e-3);
    c.add<resistor>("r1", n, ground_node, 1e3);
    const dc_result op = dc_operating_point(c);
    EXPECT_THROW((void)node_voltage(c, op.solution, "nope"), analysis_error);
}

} // namespace
