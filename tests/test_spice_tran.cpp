// Transient analysis against closed-form step responses.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.h"
#include "spice/circuit.h"
#include "spice/devices/controlled.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/measure.h"
#include "spice/tran_analysis.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif
#ifndef ACSTAB_TOOL_PATH
#define ACSTAB_TOOL_PATH ""
#endif

namespace {

using namespace acstab;
using namespace acstab::spice;

TEST(tran, rc_charging_curve)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    const real r = 1e3;
    const real cap = 1e-9; // tau = 1 us
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 1.0, 0.0, 1e-9));
    c.add<resistor>("r1", in, out, r);
    c.add<capacitor>("c1", out, ground_node, cap);

    tran_options opt;
    opt.tstop = 5e-6;
    opt.dt = 5e-9;
    const tran_result res = transient(c, opt);
    const std::vector<real> v = node_waveform(c, res, "out");
    const real tau = r * cap;
    for (std::size_t i = 0; i < res.time.size(); i += 40) {
        const real expected = 1.0 - std::exp(-std::max(res.time[i] - 1e-9, 0.0) / tau);
        EXPECT_NEAR(v[i], expected, 5e-3) << "t=" << res.time[i];
    }
}

TEST(tran, rc_discharge_through_pulse)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id out = c.node("out");
    c.add<vsource>("vin", in, ground_node,
                   waveform_spec::make_pulse(0.0, 1.0, 1e-6, 1e-8, 1e-8, 2e-6, 1e30));
    c.add<resistor>("r1", in, out, 1e3);
    c.add<capacitor>("c1", out, ground_node, 1e-10); // tau = 100 ns
    tran_options opt;
    opt.tstop = 6e-6;
    opt.dt = 1e-8;
    const tran_result res = transient(c, opt);
    const std::vector<real> v = node_waveform(c, res, "out");
    // Fully charged by 2.5 us, fully discharged by 5 us.
    const auto at = [&](real t) {
        std::size_t best = 0;
        for (std::size_t i = 0; i < res.time.size(); ++i)
            if (std::fabs(res.time[i] - t) < std::fabs(res.time[best] - t))
                best = i;
        return v[best];
    };
    EXPECT_NEAR(at(2.9e-6), 1.0, 1e-2);
    EXPECT_NEAR(at(5.9e-6), 0.0, 1e-2);
}

TEST(tran, series_rlc_underdamped_ringing)
{
    circuit c;
    const node_id in = c.node("in");
    const node_id m = c.node("m");
    const node_id out = c.node("out");
    const real r = 20.0;
    const real l = 1e-6;
    const real cap = 1e-9;
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_step(0.0, 1.0, 0.0, 1e-10));
    c.add<resistor>("r1", in, m, r);
    c.add<inductor>("l1", m, out, l);
    c.add<capacitor>("c1", out, ground_node, cap);

    const real wn = 1.0 / std::sqrt(l * cap);
    const real zeta = r / 2.0 * std::sqrt(cap / l);
    ASSERT_LT(zeta, 1.0);

    tran_options opt;
    opt.tstop = 30.0 / (wn / two_pi);
    opt.dt = opt.tstop / 20000.0;
    const tran_result res = transient(c, opt);
    const std::vector<real> v = node_waveform(c, res, "out");

    const real overshoot = overshoot_percent(v, 0.0, 1.0);
    const real expected = 100.0 * std::exp(-pi * zeta / std::sqrt(1.0 - zeta * zeta));
    EXPECT_NEAR(overshoot, expected, 2.0);

    const real fring = ringing_frequency(res.time, v, 1.0);
    const real fd = wn * std::sqrt(1.0 - zeta * zeta) / two_pi;
    EXPECT_NEAR(fring, fd, 0.05 * fd);
}

TEST(tran, trapezoidal_beats_backward_euler_on_lc)
{
    // A lossless LC tank started from a charged cap must conserve its
    // oscillation amplitude with trapezoidal integration.
    circuit c;
    const node_id top = c.node("top");
    const real l = 1e-6;
    const real cap = 1e-9;
    // Precharge path: current source with initial kick via PWL.
    c.add<isource>("ik", ground_node, top,
                   waveform_spec::make_pwl({0.0, 1e-8, 2e-8}, {1e-3, 1e-3, 0.0}));
    c.add<inductor>("l1", top, ground_node, l);
    c.add<capacitor>("c1", top, ground_node, cap);

    tran_options opt;
    opt.tstop = 3e-6;
    opt.dt = 2e-9;
    const tran_result res = transient(c, opt);
    const std::vector<real> v = node_waveform(c, res, "top");
    // Compare the max amplitude in the first and last thirds.
    real early = 0.0;
    real late = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (res.time[i] < 1e-6)
            early = std::max(early, std::fabs(v[i]));
        if (res.time[i] > 2e-6)
            late = std::max(late, std::fabs(v[i]));
    }
    EXPECT_GT(early, 0.0);
    EXPECT_GT(late, 0.85 * early); // trapezoidal: nearly lossless
}

TEST(tran, sine_source_tracks)
{
    circuit c;
    const node_id in = c.node("in");
    c.add<vsource>("vin", in, ground_node, waveform_spec::make_sine(1.0, 0.5, 1e6));
    c.add<resistor>("r1", in, ground_node, 1e3);
    tran_options opt;
    opt.tstop = 3e-6;
    opt.dt = 2e-9;
    const tran_result res = transient(c, opt);
    const std::vector<real> v = node_waveform(c, res, "in");
    for (std::size_t i = 0; i < v.size(); i += 101) {
        const real expected = 1.0 + 0.5 * std::sin(two_pi * 1e6 * res.time[i]);
        EXPECT_NEAR(v[i], expected, 1e-6);
    }
}

TEST(tran, breakpoints_are_hit_exactly)
{
    circuit c;
    const node_id in = c.node("in");
    c.add<vsource>("vin", in, ground_node,
                   waveform_spec::make_pulse(0.0, 1.0, 1.05e-6, 1e-8, 1e-8, 0.5e-6, 1e30));
    c.add<resistor>("r1", in, ground_node, 1e3);
    tran_options opt;
    opt.tstop = 2e-6;
    opt.dt = 3e-7; // coarse: without breakpoints the edge would be missed
    const tran_result res = transient(c, opt);
    bool found_edge_start = false;
    for (const real t : res.time)
        if (std::fabs(t - 1.05e-6) < 1e-12)
            found_edge_start = true;
    EXPECT_TRUE(found_edge_start);
}

TEST(tran, unbounded_growth_ends_the_run_as_diverged)
{
    // An LC tank across a negative conductance (a VCCS feeding its own
    // node) rings up without bound: 50 nepers per microsecond outgrow
    // double range within tstop. The run must stop at the last finite
    // point and say so, not store NaN samples as converged steps.
    circuit c;
    const node_id n = c.node("n");
    c.add<isource>("i1", ground_node, n, waveform_spec::make_step(0.0, 1e-3, 0.0, 1e-9));
    c.add<vccs>("gneg", ground_node, n, n, ground_node, 0.01);
    c.add<inductor>("l1", n, ground_node, 1e-6);
    c.add<capacitor>("c1", n, ground_node, 1e-10);
    tran_options opt;
    opt.tstop = 50e-6;
    opt.dt = 1e-9;
    const tran_result res = transient(c, opt);
    EXPECT_TRUE(res.diverged);
    EXPECT_LT(res.time.back(), opt.tstop);
    ASSERT_EQ(res.states.size(), res.step_count() * res.unknowns);
    for (const real v : res.states)
        ASSERT_TRUE(std::isfinite(v));
}

TEST(tran, rejects_bad_tstop)
{
    circuit c;
    const node_id in = c.node("in");
    c.add<vsource>("vin", in, ground_node, 1.0);
    c.add<resistor>("r1", in, ground_node, 1e3);
    tran_options opt;
    opt.tstop = 0.0;
    EXPECT_THROW(transient(c, opt), analysis_error);
}

TEST(tran, rejects_negative_and_unbounded_steps)
{
    circuit c;
    const node_id in = c.node("in");
    c.add<vsource>("vin", in, ground_node, 1.0);
    c.add<resistor>("r1", in, ground_node, 1e3);
    tran_options opt;
    opt.tstop = 1e-6;
    opt.dt = -1.0;
    EXPECT_THROW(transient(c, opt), analysis_error);
    // 1e24 nominal steps: refused up front with the window in the message.
    opt.dt = 1e-30;
    try {
        (void)transient(c, opt);
        ADD_FAILURE() << "an unbounded step count was accepted";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("tstop = 1e-06 s"), std::string::npos) << what;
        EXPECT_NE(what.find("dt = 1e-30 s"), std::string::npos) << what;
        EXPECT_NE(what.find("1e+24 steps"), std::string::npos) << what;
    }
    // The limit itself is allowed (checked without running it).
    EXPECT_NO_THROW(check_tran_window("transient", 1.0, 1.0 / max_tran_steps));
}

/// Exit status of `acstab tran` on rlc_tank with the given --dt (output
/// discarded; a run that does not end within 30 s counts as failed).
[[nodiscard]] int tran_cli_status(const std::string& dt)
{
    const std::string cmd = std::string("timeout 30 '") + ACSTAB_TOOL_PATH + "' tran '"
        + ACSTAB_NETLIST_DIR + "/rlc_tank.sp' --node tank --tstop 1e-6 --dt " + dt
        + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(tran, cli_refuses_negative_and_unbounded_steps)
{
    if (std::string(ACSTAB_TOOL_PATH).empty())
        GTEST_SKIP() << "tool path not configured";
    EXPECT_EQ(tran_cli_status("-1"), 1);
    EXPECT_EQ(tran_cli_status("1e-30"), 1);
}

TEST(tran, waveform_spec_values)
{
    const waveform_spec pulse = waveform_spec::make_pulse(0.0, 2.0, 1.0, 0.5, 0.5, 2.0, 10.0);
    EXPECT_NEAR(pulse.value_at(0.5), 0.0, 1e-12);
    EXPECT_NEAR(pulse.value_at(1.25), 1.0, 1e-12); // mid-rise
    EXPECT_NEAR(pulse.value_at(2.0), 2.0, 1e-12);  // flat top
    EXPECT_NEAR(pulse.value_at(3.75), 1.0, 1e-12); // mid-fall
    EXPECT_NEAR(pulse.value_at(5.0), 0.0, 1e-12);  // back to v1
    EXPECT_NEAR(pulse.value_at(11.25), 1.0, 1e-12); // periodic repeat

    const waveform_spec pwl = waveform_spec::make_pwl({0.0, 1.0, 3.0}, {0.0, 2.0, -2.0});
    EXPECT_NEAR(pwl.value_at(-1.0), 0.0, 1e-12);
    EXPECT_NEAR(pwl.value_at(0.5), 1.0, 1e-12);
    EXPECT_NEAR(pwl.value_at(2.0), 0.0, 1e-12);
    EXPECT_NEAR(pwl.value_at(9.0), -2.0, 1e-12);

    EXPECT_THROW(waveform_spec::make_pwl({0.0, 0.0}, {1.0, 2.0}), circuit_error);
    EXPECT_THROW(waveform_spec::make_pwl({}, {}), circuit_error);
}

} // namespace
