#include "spice/ac_analysis.h"

#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"

namespace acstab::spice {

ac_result ac_sweep(circuit& c, const std::vector<real>& freqs_hz, const std::vector<real>& op,
                   const ac_options& opt)
{
    c.finalize();
    if (op.size() != c.unknown_count())
        throw analysis_error("ac sweep: operating point has wrong size");

    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.exclusive_source = opt.exclusive_source;
    const engine::linearized_snapshot snap(c, op, sopt);

    // One channel per MNA unknown: the whole solution vector on the
    // output grid, not just a pre-selected probe node (on the adaptive
    // grid the shared-support rational model reconstructs all of it).
    const std::size_t n = snap.size();
    std::vector<engine::adaptive_channel> channels(n);
    for (std::size_t k = 0; k < n; ++k)
        channels[k] = {0, k};
    ac_result res;
    const engine::channel_sweep sw = engine::sweep_channels(
        snap, freqs_hz, std::nullopt, {snap.stimulus_rhs()}, channels, opt,
        {[&res, n](const std::vector<real>& grid) {
             res.solution.assign(grid.size(), std::vector<cplx>(n));
         },
         [&res](std::size_t fi, std::size_t k, cplx v) { res.solution[fi][k] = v; }});
    res.freq_hz = sw.freq_hz;
    res.factorizations = sw.factorizations;
    return res;
}

std::vector<cplx> node_response(const circuit& c, const ac_result& res,
                                const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    std::vector<cplx> out(res.freq_hz.size()); // ground stays 0
    if (*id >= 0)
        for (std::size_t k = 0; k < out.size(); ++k)
            out[k] = res.solution[k][static_cast<std::size_t>(*id)];
    return out;
}

} // namespace acstab::spice
