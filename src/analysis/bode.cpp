#include "analysis/bode.h"

#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"
#include "spice/devices/sources.h"

namespace acstab::analysis {

frequency_response measure_response(spice::circuit& c, const std::string& source_name,
                                    const std::string& output_node,
                                    const std::vector<real>& freqs_hz, const bode_options& opt)
{
    spice::device* src = c.find_device(source_name);
    if (src == nullptr)
        throw analysis_error("bode: unknown source '" + source_name + "'");

    cplx stimulus{0.0, 0.0};
    if (const auto* vs = dynamic_cast<const spice::vsource*>(src))
        stimulus = vs->spec().ac_phasor();
    else if (const auto* is = dynamic_cast<const spice::isource*>(src))
        stimulus = is->spec().ac_phasor();
    else
        throw analysis_error("bode: device '" + source_name + "' is not an independent source");
    if (stimulus == cplx{0.0, 0.0})
        throw analysis_error("bode: source '" + source_name + "' has zero AC magnitude");

    spice::dc_options dc = opt.dc;
    dc.solver = opt.solver;
    dc.gmin = opt.gmin;
    const spice::dc_result op = spice::dc_operating_point(c, dc);

    const auto node = c.find_node(output_node);
    if (!node)
        throw analysis_error("bode: unknown node '" + output_node + "'");
    if (*node < 0)
        throw analysis_error("bode: cannot measure the ground node");
    c.finalize();
    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.exclusive_source = src;
    const engine::linearized_snapshot snap(c, op.solution, sopt);

    frequency_response out;
    const engine::channel_sweep sw = engine::sweep_channels(
        snap, freqs_hz, std::nullopt, {snap.stimulus_rhs()},
        {{0, static_cast<std::size_t>(*node)}}, opt,
        {[&out](const std::vector<real>& grid) { out.h.resize(grid.size()); },
         [&out](std::size_t fi, std::size_t, cplx v) { out.h[fi] = v; }});
    out.freq_hz = sw.freq_hz;
    out.factorizations = sw.factorizations;
    for (cplx& v : out.h)
        v /= stimulus;
    out.margins = spice::margins(out.freq_hz, out.h);
    return out;
}

} // namespace acstab::analysis
