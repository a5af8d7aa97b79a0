// Shared-symbolic transient solver: equivalence against the seed
// one-shot path, solver-counter contracts, and the actionable
// non-convergence ladder diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "gen/netlist_gen.h"
#include "spice/circuit.h"
#include "spice/devices/diode.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/newton_solver.h"
#include "spice/parser/netlist_parser.h"
#include "spice/tran_analysis.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;
using namespace acstab::spice;

[[nodiscard]] std::string netlist_path(const std::string& name)
{
    return std::string(ACSTAB_NETLIST_DIR) + "/" + name;
}

/// Run the same transient twice — shared-symbolic vs seed one-shot — on
/// freshly parsed circuits and require waveform agreement to solver
/// rounding (1e-12 relative) at every step of every unknown. Both paths
/// run the identical Newton iteration; only the linear-solve plumbing
/// differs, so this bound is tight, not statistical.
void expect_paths_equivalent(const std::string& text, real tstop, real dt = 0.0)
{
    tran_options shared_opt;
    shared_opt.tstop = tstop;
    shared_opt.dt = dt;
    shared_opt.shared_solver = true;
    tran_options oneshot_opt = shared_opt;
    oneshot_opt.shared_solver = false;

    parsed_netlist net_a = parse_netlist(text);
    const tran_result a = transient(net_a.ckt, shared_opt);
    parsed_netlist net_b = parse_netlist(text);
    const tran_result b = transient(net_b.ckt, oneshot_opt);

    ASSERT_EQ(a.time.size(), b.time.size());
    // Agreement bound: 1e-12 relative to the run's solution scale
    // (||a - b||_inf <= 1e-12 * ||x||_inf, floor 1). Per-sample rounding
    // differs in the last bits because the shared path's supernodal
    // kernel sums in a different order than the one-shot factorization.
    real scale = 1.0;
    for (const real v : a.states)
        scale = std::max(scale, std::fabs(v));
    ASSERT_EQ(a.unknowns, b.unknowns);
    for (std::size_t s = 0; s < a.time.size(); ++s) {
        ASSERT_EQ(a.time[s], b.time[s]) << "step " << s;
        for (std::size_t i = 0; i < a.unknowns; ++i)
            EXPECT_LE(std::fabs(a.state(s)[i] - b.state(s)[i]), 1e-12 * scale)
                << "step " << s << " unknown " << i << " t=" << a.time[s];
    }
    // The shared path factored symbolically once; the one-shot baseline
    // reports no shared-solver activity at all.
    EXPECT_GE(a.solver.solves, a.time.size() - 1);
    EXPECT_GE(a.solver.symbolic_builds, std::size_t{1});
    EXPECT_EQ(b.solver.solves, std::size_t{0});
    EXPECT_EQ(b.solver.symbolic_builds, std::size_t{0});
}

[[nodiscard]] std::string read_file(const std::string& path)
{
    parsed_netlist net = parse_netlist_file(path); // validates while we are at it
    (void)net;
    std::string text;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

TEST(tran_solver, equivalence_follower)
{
    // BJT follower: nonlinear junctions, several Newton iterations per
    // step, ringing near 100 MHz.
    expect_paths_equivalent(read_file(netlist_path("follower.sp")), 1e-7);
}

TEST(tran_solver, equivalence_rlc_tank)
{
    expect_paths_equivalent(read_file(netlist_path("rlc_tank.sp")), 1e-5);
}

TEST(tran_solver, equivalence_two_pole_loop)
{
    expect_paths_equivalent(read_file(netlist_path("two_pole_loop.sp")), 1.3e-5);
}

TEST(tran_solver, equivalence_three_pole_loop)
{
    // Unstable loop (PM about -61 deg): keep the window short so the
    // exponential growth stays in range while both paths track it.
    expect_paths_equivalent(read_file(netlist_path("three_pole_loop.sp")), 5e-5);
}

TEST(tran_solver, equivalence_generated_rcmesh)
{
    gen::gen_options gopt;
    gopt.size = 64;
    expect_paths_equivalent(gen::rcmesh_netlist(gopt), 2e-5);
}

TEST(tran_solver, linear_circuit_factors_symbolically_once)
{
    // A linear RC circuit keeps one stamp pattern and one set of values
    // per step: the shared solver must never rebuild the pattern, never
    // trip the growth guard, and build exactly one symbolic analysis.
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 1.0, 0.0, 1e-9));
    c.add<resistor>("r1", in, out, 1e3);
    c.add<capacitor>("c1", out, ground_node, 1e-9);

    tran_options opt;
    opt.tstop = 5e-6;
    opt.dt = 5e-9;
    const tran_result res = transient(c, opt);
    EXPECT_EQ(res.solver.symbolic_builds, std::size_t{1});
    EXPECT_EQ(res.solver.pattern_rebuilds, std::size_t{0});
    EXPECT_EQ(res.solver.guard_rebuilds, std::size_t{0});
    EXPECT_GE(res.solver.solves, res.time.size() - 1);
}

TEST(tran_solver, stale_pivot_order_repivots)
{
    // The first stamp fixes the pattern and a diagonal pivot order. The
    // second, [[1e-13,1],[1,3]], pivots on 1e-13 under that order (growth
    // 1e13, x0 off in the fourth digit): the guard must re-pivot.
    newton_solver solver(2);
    const auto stamp = [&solver](real a00, real a11) {
        system_builder<real>& b = solver.begin_stamp();
        b.add(0, 0, a00);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, a11);
        b.rhs_add(0, 1.0);
        b.rhs_add(1, 1.0);
        std::vector<real> x;
        solver.solve(x);
        return x;
    };
    (void)stamp(2.0, 3.0);
    const std::vector<real> x = stamp(1e-13, 3.0);
    EXPECT_EQ(solver.stats().guard_rebuilds, std::size_t{1});
    EXPECT_EQ(solver.stats().symbolic_builds, std::size_t{2});
    EXPECT_EQ(solver.stats().pattern_rebuilds, std::size_t{0});
    EXPECT_NEAR(x[0], -2.0, 1e-11);
    EXPECT_NEAR(x[1], 1.0, 1e-11);
}

TEST(tran_solver, nonconvergence_reports_step_ladder)
{
    // A hard-driven diode with a one-iteration Newton budget cannot
    // converge; with dtmin_factor 0.5 the halving ladder has exactly one
    // rung below the nominal step before the engine gives up. The
    // diagnostic must carry the failing time, the attempted ladder and
    // the step floor — the actionable bits.
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 5.0, 0.0, 1e-9));
    c.add<resistor>("r1", in, out, 100.0);
    c.add<diode>("d1", out, ground_node);

    tran_options opt;
    opt.tstop = 1e-6;
    opt.dt = 1e-8;
    opt.max_newton = 1;
    opt.dtmin_factor = 0.5;
    try {
        (void)transient(c, opt);
        FAIL() << "expected convergence_error";
    } catch (const convergence_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("transient: Newton failed at t = "), std::string::npos) << msg;
        EXPECT_NE(msg.find("advancing toward"), std::string::npos) << msg;
        EXPECT_NE(msg.find("attempted:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dt="), std::string::npos) << msg;
        EXPECT_NE(msg.find("no convergence in 1 iteration(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("minimum step"), std::string::npos) << msg;
    }
}

TEST(tran_solver, oneshot_nonconvergence_matches_shared_diagnostic)
{
    // The ladder diagnostic is a property of the engine, not the solver
    // path: both paths fail at the same point with the same message.
    const auto run = [](bool shared) -> std::string {
        circuit c;
        const node_id in = c.node("in");
        const node_id out = c.node("out");
        c.add<vsource>("vin", in, ground_node,
                       waveform_spec::make_step(0.0, 5.0, 0.0, 1e-9));
        c.add<resistor>("r1", in, out, 100.0);
        c.add<diode>("d1", out, ground_node);
        tran_options opt;
        opt.tstop = 1e-6;
        opt.dt = 1e-8;
        opt.max_newton = 1;
        opt.dtmin_factor = 0.5;
        opt.shared_solver = shared;
        try {
            (void)transient(c, opt);
        } catch (const convergence_error& e) {
            return e.what();
        }
        return {};
    };
    const std::string shared_msg = run(true);
    const std::string oneshot_msg = run(false);
    ASSERT_FALSE(shared_msg.empty());
    EXPECT_EQ(shared_msg, oneshot_msg);
}

} // namespace
