#include "analysis/impedance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_channels.h"
#include "numeric/aaa.h"
#include "numeric/interpolation.h"

namespace acstab::analysis {

namespace {

    /// Minimal union-find over node ids (path compression only; the node
    /// counts here are tiny).
    class components {
    public:
        explicit components(std::size_t n) : parent_(n)
        {
            for (std::size_t i = 0; i < n; ++i)
                parent_[i] = i;
        }

        std::size_t find(std::size_t a)
        {
            while (parent_[a] != a) {
                parent_[a] = parent_[parent_[a]];
                a = parent_[a];
            }
            return a;
        }

        void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

    private:
        std::vector<std::size_t> parent_;
    };

    [[nodiscard]] bool is_independent_source(const spice::device& dev)
    {
        const std::string_view t = dev.type_name();
        return t == "vsource" || t == "isource";
    }

} // namespace

impedance_partition partition_at_node(spice::circuit& c, const std::string& node,
                                      const std::vector<std::string>& force_source)
{
    const auto found = c.find_node(node);
    if (!found)
        throw analysis_error("impedance: unknown node '" + node + "'");
    if (*found < 0)
        throw analysis_error("impedance: cannot partition at the ground node");
    c.finalize();
    const std::size_t port = static_cast<std::size_t>(*found);
    if (c.source_forced_nodes()[port])
        throw analysis_error("impedance: node '" + node
                             + "' is forced by an ideal voltage source (its "
                               "driving-point impedances are degenerate)");

    std::unordered_set<std::string> forced;
    for (const std::string& name : force_source) {
        if (c.find_device(name) == nullptr)
            throw analysis_error("impedance: --source element '" + name
                                 + "' is not a device of this circuit");
        forced.insert(name);
    }

    // The nodes a device ties together: its terminals and, for a
    // current-controlled source, those of its controlling voltage source,
    // whose branch current its equation reads — a snapshot holding only
    // one of the two would pin that current to zero.
    const auto tied_nodes = [&c](const spice::device& dev) {
        std::vector<spice::node_id> nodes = dev.nodes();
        if (const std::string_view ctrl = dev.controlling_source(); !ctrl.empty())
            if (const spice::device* src = c.find_device(ctrl))
                nodes.insert(nodes.end(), src->nodes().begin(), src->nodes().end());
        return nodes;
    };

    // Connected components of the node graph with the partition node and
    // ground removed: the electrical "sides" of the cut.
    components comp(c.node_count());
    for (const auto& dev : c.devices()) {
        std::size_t first = c.node_count(); // invalid
        for (const spice::node_id n : tied_nodes(*dev)) {
            if (n < 0 || static_cast<std::size_t>(n) == port)
                continue;
            const std::size_t k = static_cast<std::size_t>(n);
            if (first == c.node_count())
                first = k;
            else
                comp.unite(first, k);
        }
    }

    // Classify each component: forced elements win, then any component
    // holding an independent source is source-side; everything else —
    // including the devices shunting the port straight to ground — is the
    // load. Components with no path to the port (disconnected bias
    // islands) ride along on the source side; they contribute to neither
    // driving-point impedance.
    enum class side { undecided, source, load };
    std::vector<side> comp_side(c.node_count(), side::undecided);
    std::vector<bool> comp_adjacent(c.node_count(), false);
    const auto component_of = [&](const spice::device& dev) -> std::size_t {
        for (const spice::node_id n : tied_nodes(dev))
            if (n >= 0 && static_cast<std::size_t>(n) != port)
                return comp.find(static_cast<std::size_t>(n));
        return c.node_count(); // shunt: touches only port/ground
    };
    for (const auto& dev : c.devices()) {
        const std::size_t k = component_of(*dev);
        const bool touches_port = std::any_of(
            dev->nodes().begin(), dev->nodes().end(),
            [port](spice::node_id n) { return n >= 0 && static_cast<std::size_t>(n) == port; });
        if (k == c.node_count())
            continue;
        if (touches_port)
            comp_adjacent[k] = true;
        if (forced.contains(dev->name()))
            comp_side[k] = side::source;
        else if (comp_side[k] == side::undecided && is_independent_source(*dev))
            comp_side[k] = side::source;
    }

    impedance_partition part;
    part.node = node;
    for (const auto& dev : c.devices()) {
        const std::size_t k = component_of(*dev);
        bool source;
        if (k == c.node_count()) {
            // Port/ground shunt: source only when explicitly forced.
            source = forced.contains(dev->name());
        } else if (!comp_adjacent[k]) {
            source = true; // disconnected island
        } else {
            source = comp_side[k] == side::source;
        }
        (source ? part.source_devices : part.load_devices).push_back(dev->name());
    }

    if (part.source_devices.empty() || part.load_devices.empty())
        throw analysis_error(
            "impedance: cannot tell the sides of node '" + node
            + "' apart (every element shunts it to ground, or no side holds an "
              "independent source); name the source-side elements with --source");
    return part;
}

impedance_result analyze_impedance(spice::circuit& c, const std::string& node,
                                   const impedance_options& opt)
{
    impedance_result res;
    res.partition = partition_at_node(c, node, opt.source_elements);
    const std::size_t port = static_cast<std::size_t>(*c.find_node(node));

    spice::dc_options dc = opt.dc;
    dc.solver = opt.solver;
    dc.gmin = opt.gmin;
    const spice::dc_result op = spice::dc_operating_point(c, dc);

    // Both sides are linearized about the SAME full-circuit operating
    // point; the filter selects which side's small-signal stamps survive.
    const auto side_snapshot = [&](const std::vector<std::string>& names) {
        const std::unordered_set<std::string> keep(names.begin(), names.end());
        engine::snapshot_options sopt;
        sopt.gmin = opt.gmin;
        sopt.gshunt = opt.gshunt;
        sopt.zero_all_sources = true;
        sopt.device_filter
            = [keep](const spice::device& dev) { return keep.contains(dev.name()); };
        return engine::linearized_snapshot(c, op.solution, sopt);
    };
    const engine::linearized_snapshot snap_s = side_snapshot(res.partition.source_devices);
    const engine::linearized_snapshot snap_l = side_snapshot(res.partition.load_devices);

    // One unit-current injection at the port per side: V(port) IS the
    // side's driving-point impedance.
    const std::vector<engine::sweep_engine::injection> injections{{port, cplx{1.0, 0.0}}};

    // One unit-current sweep per side. Both sides sweep the same grid (the
    // adaptive driver's output grid is the fixed grid too), so their
    // impedances pair up point for point.
    const std::vector<real> grid
        = numeric::log_grid(opt.fstart, opt.fstop, opt.points_per_decade);
    const engine::sweep_spec band{opt.fstart, opt.fstop, opt.points_per_decade};
    const auto sweep_side = [&](const engine::linearized_snapshot& snap, std::vector<cplx>& z) {
        const engine::channel_sweep sw = engine::sweep_channels(
            snap, grid, band, injections, {{0, port}}, opt,
            {[&z](const std::vector<real>& f) { z.resize(f.size()); },
             [&z](std::size_t fi, std::size_t, cplx v) { z[fi] = v; }});
        res.factorizations += sw.factorizations;
        return sw.freq_hz;
    };
    res.freq_hz = sweep_side(snap_s, res.z_source);
    sweep_side(snap_l, res.z_load);

    // Minor-loop gain and the Nyquist-like verdicts.
    const std::size_t nf = res.freq_hz.size();
    res.minor_loop.resize(nf);
    for (std::size_t i = 0; i < nf; ++i)
        res.minor_loop[i] = res.z_source[i] / res.z_load[i];

    res.margins = spice::margins(res.freq_hz, res.minor_loop);
    if (res.margins.has_unity_crossing) {
        // Impedance ratios cross unity with leading phase as often as
        // lagging (inductive source over capacitive load sits near +180
        // rather than -180); report the SYMMETRIC phase distance to the
        // critical ray, 180 - |phase|, which coincides with the classic
        // phase margin for lagging loops. The stability verdict itself
        // comes from the encirclement count, never from this margin.
        const real phase_wrapped = res.margins.phase_margin_deg - 180.0;
        res.margins.phase_margin_deg = 180.0 - std::fabs(
            phase_wrapped - 360.0 * std::round(phase_wrapped / 360.0));
    }

    // Closest approach to -1.
    res.nyquist_margin = std::numeric_limits<real>::infinity();
    for (std::size_t i = 0; i < nf; ++i) {
        const real d = std::abs(res.minor_loop[i] + cplx{1.0, 0.0});
        if (d < res.nyquist_margin) {
            res.nyquist_margin = d;
            res.nyquist_margin_freq_hz = res.freq_hz[i];
        }
    }

    // Net encirclements of -1 from signed real-axis crossings left of -1
    // (robust on a finite swept contour, where accumulating raw winding
    // angle is distorted by whatever the ratio does beyond the band). A
    // downward crossing (Im + -> -) of the ray (-inf, -1) adds one
    // COUNTER-clockwise turn; conjugate symmetry doubles the half-contour
    // count; clockwise encirclements are its negation.
    int ccw_half = 0;
    for (std::size_t i = 1; i < nf; ++i) {
        const real sa = res.minor_loop[i - 1].imag();
        const real sb = res.minor_loop[i].imag();
        if ((sa < 0.0) == (sb < 0.0) || sa == sb)
            continue;
        const real t = sa / (sa - sb);
        const real re = res.minor_loop[i - 1].real()
            + t * (res.minor_loop[i].real() - res.minor_loop[i - 1].real());
        if (re < -1.0)
            ccw_half += sa > 0.0 ? 1 : -1;
    }
    res.encirclements = -2 * ccw_half;
    res.stable = res.encirclements == 0;

    if (opt.adaptive) {
        // Low-order closed-loop estimate: AAA-fit the impedance ratio and
        // take the fitted model's -1 level crossings — the zeros of
        // 1 + L_m, i.e. the natural frequencies of the interconnection.
        numeric::aaa_options fopt;
        fopt.rel_tol = std::max(opt.fit_tol * 0.25, real{1e-13});
        fopt.max_support = 48;
        const numeric::aaa_model ratio_model
            = numeric::aaa_fit(res.freq_hz, {res.minor_loop}, fopt);
        res.has_model = true;
        res.model_order = ratio_model.support_count();
        res.model_fit_error = ratio_model.fit_error();
        // AAA fits place near-cancelling pole/zero doublets where the
        // data is noisy; inside such a doublet L_m sweeps through every
        // value, planting a spurious -1 crossing right next to a model
        // pole. Genuine closed-loop poles sit where L_m ~ -1 smoothly,
        // far from the model's own poles — drop crossings hugging one.
        const std::vector<cplx> ratio_poles = ratio_model.poles();
        std::vector<cplx> kept;
        for (const cplx x : ratio_model.level_crossings(0, cplx{-1.0, 0.0})) {
            // Fitted over real frequency x, the model's crossings sit at
            // x = s / (j 2 pi): stable poles have Im(x) > 0.
            const real mag = two_pi * std::abs(x);
            if (mag < to_omega(opt.fstart) / 10.0 || mag > to_omega(opt.fstop) * 10.0)
                continue; // far outside the evidence band: fit artifact
            if (x.real() < -1e-6 * std::abs(x))
                continue; // conjugate-pair mirror (negative frequency);
                          // report the positive-frequency representative
            bool doublet = false;
            for (const cplx& q : ratio_poles)
                doublet = doublet || std::abs(x - q) <= 3e-3 * (std::abs(x) + std::abs(q));
            bool duplicate = false;
            for (const cplx& k : kept)
                duplicate = duplicate || std::abs(x - k) <= 1e-3 * (std::abs(x) + std::abs(k));
            if (doublet || duplicate)
                continue;
            kept.push_back(x);
            const cplx s{-two_pi * x.imag(), two_pi * x.real()};
            pole p;
            p.s = s;
            p.freq_hz = mag / two_pi;
            p.is_complex = s.imag() != 0.0;
            p.zeta = mag > 0.0 ? -s.real() / mag : 1.0;
            res.closed_loop_poles.push_back(p);
        }
        std::sort(res.closed_loop_poles.begin(), res.closed_loop_poles.end(),
                  [](const pole& a, const pole& b) { return a.freq_hz < b.freq_hz; });
    }
    return res;
}

} // namespace acstab::analysis
