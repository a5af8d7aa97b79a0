// GCC 12 false positive (GCC bug 105651): -Wrestrict on libstdc++'s
// inlined std::string concatenation. Off for this file, before its includes.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include "circuits/rlc.h"

#include <cmath>

#include "common/error.h"
#include "spice/devices/controlled.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"

namespace acstab::circuits {

void add_parallel_rlc_tank(spice::circuit& c, const std::string& node, real zeta, real fn_hz,
                           real c_farads)
{
    if (!(zeta > 0.0) || !(fn_hz > 0.0) || !(c_farads > 0.0))
        throw circuit_error("rlc tank: zeta, fn and C must be positive");
    const real wn = to_omega(fn_hz);
    const real l = 1.0 / (wn * wn * c_farads);
    // zeta = 1/(2 R) * sqrt(L/C)  ->  R = sqrt(L/C) / (2 zeta)
    const real r = std::sqrt(l / c_farads) / (2.0 * zeta);
    const spice::node_id n = c.node(node);
    c.add<spice::resistor>("r_" + node, n, spice::ground_node, r);
    c.add<spice::inductor>("l_" + node, n, spice::ground_node, l);
    c.add<spice::capacitor>("c_" + node, n, spice::ground_node, c_farads);
}

two_pole_loop_nodes build_two_pole_loop(spice::circuit& c, const two_pole_loop_spec& spec)
{
    two_pole_loop_nodes nodes;
    const spice::node_id in = c.node(nodes.input);
    const spice::node_id s1 = c.node(nodes.stage1);
    const spice::node_id out = c.node(nodes.output);
    const spice::node_id fb = c.node(nodes.feedback);

    // Stage 1: i = gm1 (v_in - v_fb) into r1 || c1; gain a1 = gm1 r1.
    const real r1 = 10e3;
    const real gm1 = spec.a1 / r1;
    const real c1 = 1.0 / (to_omega(spec.p1_hz) * r1);
    c.add<spice::vccs>("g1", spice::ground_node, s1, in, fb, gm1);
    c.add<spice::resistor>("r1", s1, spice::ground_node, r1);
    c.add<spice::capacitor>("c1", s1, spice::ground_node, c1);

    // Stage 2: i = gm2 v_s1 into r2 || c2; gain a2 = gm2 r2.
    const real r2 = 10e3;
    const real gm2 = spec.a2 / r2;
    const real c2 = 1.0 / (to_omega(spec.p2_hz) * r2);
    c.add<spice::vccs>("g2", spice::ground_node, out, s1, spice::ground_node, gm2);
    c.add<spice::resistor>("r2", out, spice::ground_node, r2);
    c.add<spice::capacitor>("c2", out, spice::ground_node, c2);

    // Feedback wire through the loop-gain probe (plus on the driving side).
    c.add<spice::vsource>(nodes.probe, out, fb, 0.0);
    // A large resistor keeps fb biased even if the probe is manipulated.
    c.add<spice::resistor>("rfb_bleed", fb, spice::ground_node, 1e12);

    c.add<spice::vsource>(nodes.source, in, spice::ground_node,
                          spice::waveform_spec::make_ac(0.0, 1.0));
    return nodes;
}

void build_rc_ladder(spice::circuit& c, std::size_t sections, real r_ohms, real c_farads)
{
    if (sections == 0)
        throw circuit_error("rc ladder: need at least one section");
    spice::node_id prev = c.node("in");
    c.add<spice::vsource>("vin", prev, spice::ground_node,
                          spice::waveform_spec::make_ac(1.0, 1.0));
    for (std::size_t k = 0; k < sections; ++k) {
        const spice::node_id next = c.node("n" + std::to_string(k));
        c.add<spice::resistor>("r" + std::to_string(k), prev, next, r_ohms);
        c.add<spice::capacitor>("c" + std::to_string(k), next, spice::ground_node, c_farads);
        prev = next;
    }
}

} // namespace acstab::circuits
