#include "core/analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/second_order.h"
#include "engine/linearized_snapshot.h"

namespace acstab::core {

namespace {

    /// Snapshot with every AC stimulus zeroed: the stability sweeps inject
    /// their own unit-current right-hand sides.
    engine::linearized_snapshot make_injection_snapshot(spice::circuit& c,
                                                        const std::vector<real>& op,
                                                        const stability_options& opt)
    {
        engine::snapshot_options sopt;
        sopt.gmin = opt.gmin;
        sopt.gshunt = opt.gshunt;
        sopt.zero_all_sources = true;
        return engine::linearized_snapshot(c, op, sopt);
    }

} // namespace

stability_analyzer::stability_analyzer(spice::circuit& c, stability_options opt)
    : circuit_(c), opt_(std::move(opt))
{
}

const std::vector<real>& stability_analyzer::operating_point()
{
    if (!op_) {
        spice::dc_options dc = opt_.dc;
        dc.gmin = opt_.gmin;
        dc.solver = opt_.solver;
        op_ = spice::dc_operating_point(circuit_, dc);
    }
    return op_->solution;
}

node_stability stability_analyzer::make_node_result(std::string node_name,
                                                    std::vector<real> freqs,
                                                    std::vector<real> magnitude) const
{
    node_stability ns;
    ns.node = std::move(node_name);
    ns.plot = compute_stability_plot(freqs, magnitude, opt_.plot);
    if (const stability_peak* peak = ns.plot.dominant_pole(); peak != nullptr) {
        ns.has_peak = true;
        ns.dominant = *peak;
        if (peak->value < 0.0) {
            ns.zeta = zeta_from_performance_index(peak->value);
            ns.phase_margin_est_deg = std::min(phase_margin_rule_deg(ns.zeta), 90.0);
            ns.overshoot_est_pct = overshoot_percent(ns.zeta);
            ns.is_underdamped = peak->flag == peak_flag::normal && ns.zeta < 1.0;
        }
    }
    return ns;
}

node_stability stability_analyzer::analyze_node(const std::string& node_name)
{
    const auto node = circuit_.find_node(node_name);
    if (!node)
        throw analysis_error("stability: unknown node '" + node_name + "'");
    if (*node < 0)
        throw analysis_error("stability: cannot analyze the ground node");

    const std::vector<real>& op = operating_point();

    // The paper attaches an AC current stimulus to the node with every
    // other AC source zeroed; in engine terms that is a single injected
    // right-hand side against the zero-stimulus snapshot.
    const engine::linearized_snapshot snap = make_injection_snapshot(circuit_, op, opt_);
    const std::size_t k = static_cast<std::size_t>(*node);
    const std::vector<engine::sweep_engine::injection> injections{
        {k, cplx{opt_.stimulus_amps, 0.0}}};

    // The grid is realized on both paths: it checks the band the
    // stability plot needs before any sweep runs.
    const std::vector<real> freqs = opt_.sweep.frequencies();
    std::vector<real> magnitude;
    const engine::channel_sweep sw = engine::sweep_channels(
        snap, freqs, opt_.sweep, injections, {{0, k}}, opt_,
        {[&magnitude](const std::vector<real>& grid) { magnitude.assign(grid.size(), 0.0); },
         [&magnitude, this](std::size_t fi, std::size_t, cplx v) {
             // Normalize to impedance.
             magnitude[fi] = std::abs(v) / opt_.stimulus_amps;
         }});

    return make_node_result(node_name, sw.freq_hz, std::move(magnitude));
}

stability_report stability_analyzer::analyze_all_nodes()
{
    const std::vector<real>& op = operating_point();
    circuit_.finalize();

    const std::size_t node_count = circuit_.node_count();
    const std::vector<real> freqs = opt_.sweep.frequencies();

    // Nodes held by ideal voltage sources have zero impedance: skipped.
    const std::vector<bool> forced = circuit_.source_forced_nodes();

    // One unit-current right-hand side per analyzable node: the engine
    // factors Y(jw) once per frequency and back-solves the whole batch
    // (algebraically identical to the paper's one-simulation-per-node
    // loop, orders of magnitude faster), parallel over frequencies on the
    // shared pool.
    const engine::linearized_snapshot snap = make_injection_snapshot(circuit_, op, opt_);
    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < node_count; ++k)
        if (!forced[k])
            injections.push_back({k, cplx{1.0, 0.0}}); // unit current into node k

    // One channel per injection: each node observes its own driving-point
    // response.
    std::vector<engine::adaptive_channel> channels(injections.size());
    for (std::size_t ri = 0; ri < injections.size(); ++ri)
        channels[ri] = {ri, injections[ri].index};

    // Always the fixed grid: the adaptive driver keeps every right-hand
    // side's full solution per sample (66 MB per sample at 2k unknowns)
    // and confirms only when every node's channel agrees, so it was
    // slower than the fixed grid and used many times its memory.
    engine::sweep_config fixed_grid = opt_;
    fixed_grid.adaptive = false;

    stability_report report;
    // magnitude[node][freq]
    std::vector<std::vector<real>> magnitude(node_count);
    const engine::channel_sweep sw = engine::sweep_channels(
        snap, freqs, opt_.sweep, injections, channels, fixed_grid,
        {[&magnitude, &injections](const std::vector<real>& grid) {
             for (const engine::sweep_engine::injection& inj : injections)
                 magnitude[inj.index].assign(grid.size(), 0.0);
         },
         [&magnitude, &injections](std::size_t fi, std::size_t ri, cplx v) {
             magnitude[injections[ri].index][fi] = std::abs(v);
         }});
    report.factorizations = sw.factorizations;
    const std::vector<real>& grid = sw.freq_hz;

    for (std::size_t k = 0; k < node_count; ++k) {
        const std::string& name = circuit_.node_name(static_cast<spice::node_id>(k));
        if (forced[k]) {
            report.skipped_nodes.push_back(name);
            continue;
        }
        report.nodes.push_back(make_node_result(name, grid, std::move(magnitude[k])));
    }

    // Rows with a peak come first, ascending in natural frequency as the
    // CSV prints it (6 significant digits) and then by name, so rows that
    // print the same frequency are not ordered by last-bit noise. Rows
    // without a peak follow by name.
    std::vector<real> printed(report.nodes.size());
    std::vector<std::size_t> order(report.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        char text[32];
        std::snprintf(text, sizeof text, "%.6g", report.nodes[i].dominant.freq_hz);
        printed[i] = std::strtod(text, nullptr);
        order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        const node_stability& a = report.nodes[i];
        const node_stability& b = report.nodes[j];
        if (a.has_peak != b.has_peak)
            return a.has_peak;
        if (a.has_peak && printed[i] != printed[j])
            return printed[i] < printed[j];
        return a.node < b.node;
    });
    std::vector<node_stability> rows;
    rows.reserve(order.size());
    for (const std::size_t i : order)
        rows.push_back(std::move(report.nodes[i]));
    report.nodes = std::move(rows);
    report.loops = group_loops(report.nodes, opt_.group_rel_tol);
    return report;
}

std::vector<loop_group> group_loops(const std::vector<node_stability>& nodes, real rel_tol)
{
    std::vector<loop_group> loops;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].has_peak)
            continue;
        const real f = nodes[i].dominant.freq_hz;
        if (!loops.empty()) {
            loop_group& last = loops.back();
            if (std::fabs(f - last.freq_hz) <= rel_tol * last.freq_hz) {
                last.members.push_back(i);
                continue;
            }
        }
        loop_group g;
        g.freq_hz = f;
        g.members.push_back(i);
        loops.push_back(std::move(g));
    }
    // Representative frequency: strongest member's natural frequency.
    for (loop_group& g : loops) {
        real best = 0.0;
        for (const std::size_t idx : g.members) {
            const node_stability& ns = nodes[idx];
            if (ns.dominant.value < best) {
                best = ns.dominant.value;
                g.freq_hz = ns.dominant.freq_hz;
            }
        }
    }
    return loops;
}

} // namespace acstab::core
