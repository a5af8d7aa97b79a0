#include "analysis/loop_gain.h"

#include <array>

#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"
#include "spice/devices/sources.h"

namespace acstab::analysis {

loop_gain_result measure_loop_gain(spice::circuit& c, const std::string& probe_vsource,
                                   const std::vector<real>& freqs_hz,
                                   const loop_gain_options& opt)
{
    auto* probe = dynamic_cast<spice::vsource*>(c.find_device(probe_vsource));
    if (probe == nullptr)
        throw analysis_error("loop gain: probe vsource '" + probe_vsource + "' not found");
    if (probe->spec().dc != 0.0)
        throw analysis_error("loop gain: probe '" + probe_vsource + "' must be a 0 V source");

    c.finalize();
    const spice::node_id node_x = probe->nodes()[0];
    const spice::node_id node_y = probe->nodes()[1];
    if (node_x < 0 || node_y < 0)
        throw analysis_error("loop gain: probe must not touch ground");

    spice::dc_options dc = opt.dc;
    dc.solver = opt.solver;
    dc.gmin = opt.gmin;
    const spice::dc_result op = spice::dc_operating_point(c, dc);

    // Both injections act on the same zero-stimulus linearized system and
    // differ only in the right-hand side, so one engine pass covers them:
    //   rhs 0 — voltage injection: 1 V AC on the probe's branch equation;
    //   rhs 1 — current injection: 1 A AC into the receiving node y.
    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);

    const std::size_t branch = static_cast<std::size_t>(probe->branch());
    const std::vector<engine::sweep_engine::injection> injections{
        {branch, cplx{1.0, 0.0}}, {static_cast<std::size_t>(node_y), cplx{1.0, 0.0}}};

    // Three channels: v(x) and v(y) of the voltage injection, the probe
    // current of the current injection (one shared adaptive grid).
    std::array<std::vector<cplx>, 3> chan;
    const engine::channel_sweep sw = engine::sweep_channels(
        snap, freqs_hz, std::nullopt, injections,
        {{0, static_cast<std::size_t>(node_x)}, {0, static_cast<std::size_t>(node_y)},
         {1, branch}},
        opt,
        {[&chan](const std::vector<real>& grid) {
             for (std::vector<cplx>& v : chan)
                 v.resize(grid.size());
         },
         [&chan](std::size_t fi, std::size_t c, cplx v) { chan[c][fi] = v; }});
    const std::vector<cplx>& vx = chan[0];
    const std::vector<cplx>& vy = chan[1];
    const std::vector<cplx>& ii = chan[2];

    loop_gain_result out;
    out.freq_hz = sw.freq_hz;
    out.factorizations = sw.factorizations;
    out.tv.resize(out.freq_hz.size());
    out.ti.resize(out.freq_hz.size());
    out.t.resize(out.freq_hz.size());
    for (std::size_t k = 0; k < out.freq_hz.size(); ++k) {
        const cplx tv = -vx[k] / vy[k];
        // Probe branch current flows plus(x) -> minus(y); with 1 A pushed
        // into y, the B-side current is i + 1.
        const cplx ti = -ii[k] / (ii[k] + cplx{1.0, 0.0});
        out.tv[k] = tv;
        out.ti[k] = ti;
        out.t[k] = (tv * ti - cplx{1.0, 0.0}) / (tv + ti + cplx{2.0, 0.0});
    }
    out.margins = spice::margins(out.freq_hz, out.t);
    return out;
}

} // namespace acstab::analysis
