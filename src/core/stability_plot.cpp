#include "core/stability_plot.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "numeric/differentiation.h"
#include "numeric/interpolation.h"

namespace acstab::core {

const stability_peak* stability_plot::dominant_pole() const noexcept
{
    const stability_peak* best = nullptr;
    // Prefer normal peaks; fall back to flagged ones.
    for (const auto& pk : peaks) {
        if (pk.kind != peak_kind::complex_pole)
            continue;
        if (best == nullptr) {
            best = &pk;
            continue;
        }
        const bool best_normal = best->flag == peak_flag::normal;
        const bool pk_normal = pk.flag == peak_flag::normal;
        if (pk_normal != best_normal) {
            if (pk_normal)
                best = &pk;
            continue;
        }
        if (pk.value < best->value)
            best = &pk;
    }
    return best;
}

stability_plot compute_stability_plot(std::span<const real> freq_hz,
                                      std::span<const real> magnitude,
                                      const plot_options& opt)
{
    if (freq_hz.size() != magnitude.size())
        throw analysis_error("stability plot: frequency/magnitude size mismatch");
    if (freq_hz.size() < 8)
        throw analysis_error("stability plot: need at least 8 sweep points");
    for (std::size_t i = 1; i < freq_hz.size(); ++i)
        if (!(freq_hz[i] > freq_hz[i - 1]))
            throw analysis_error("stability plot: frequencies must be strictly increasing");

    stability_plot plot;
    // Coalesce near-duplicate frequencies before differentiating: the
    // curvature stencils divide by the squared spacing, so two samples a
    // hair apart would turn last-ulp magnitude differences into huge
    // spurious P excursions. Uniform sweeps are orders of magnitude
    // coarser than the threshold and pass through untouched.
    const real min_sep = opt.min_separation_decades * std::log(real{10.0});
    plot.freq_hz.reserve(freq_hz.size());
    plot.magnitude.reserve(freq_hz.size());
    plot.freq_hz.push_back(freq_hz[0]);
    plot.magnitude.push_back(magnitude[0]);
    for (std::size_t i = 1; i < freq_hz.size(); ++i) {
        if (std::log(freq_hz[i] / plot.freq_hz.back()) < min_sep)
            continue;
        plot.freq_hz.push_back(freq_hz[i]);
        plot.magnitude.push_back(magnitude[i]);
    }
    if (plot.freq_hz.size() < 8)
        throw analysis_error("stability plot: need at least 8 distinct sweep points");

    plot.p = opt.use_direct_formula
        ? numeric::stability_function_direct(plot.freq_hz, plot.magnitude)
        : numeric::log_log_curvature(plot.freq_hz, plot.magnitude);

    const std::vector<real>& f = plot.freq_hz;
    const std::vector<real>& p = plot.p;
    const std::size_t n = p.size();
    // Boundary samples of the second derivative are copies; treat the two
    // points at each end as the boundary region.
    const std::size_t lo = 2;
    const std::size_t hi = n - 3;

    // Parabolic-refinement bracket around extremum i. On uniform grids
    // this is the classic (i-1, i, i+1); on non-uniform grids a neighbour
    // may sit far closer on one side (a refined cluster next to coarse
    // anchors), and a parabola through such lopsided arms locates the
    // extremum poorly — walk outward until the arms are within 4:1 in
    // log-frequency.
    const auto bracket = [&f, n](std::size_t i, std::size_t& il, std::size_t& ir) {
        il = i - 1;
        ir = i + 1;
        const auto lf = [&f](std::size_t j) { return std::log(f[j]); };
        // Iterate to a fixpoint: widening one arm can re-break the other
        // arm's 4:1 condition (e.g. a cluster on one side of a big gap).
        // il/ir move monotonically toward the ends, so this terminates.
        bool changed = true;
        while (changed) {
            changed = false;
            while (il > 0 && lf(i) - lf(il) < 0.25 * (lf(ir) - lf(i))) {
                --il;
                changed = true;
            }
            while (ir + 1 < n && lf(ir) - lf(i) < 0.25 * (lf(i) - lf(il))) {
                ++ir;
                changed = true;
            }
        }
    };

    bool found_pole = false;
    for (std::size_t i = lo; i <= hi; ++i) {
        const bool is_min = p[i] < p[i - 1] && p[i] <= p[i + 1];
        const bool is_max = p[i] > p[i - 1] && p[i] >= p[i + 1];
        if (!is_min && !is_max)
            continue;
        if ((is_min && p[i] < -opt.min_peak) || (is_max && p[i] > opt.min_peak)) {
            std::size_t il = 0;
            std::size_t ir = 0;
            bracket(i, il, ir);
            const auto ref = numeric::refine_extremum(std::log(f[il]), p[il], std::log(f[i]),
                                                      p[i], std::log(f[ir]), p[ir]);
            const peak_kind kind = is_min ? peak_kind::complex_pole : peak_kind::complex_zero;
            plot.peaks.push_back({kind, peak_flag::normal, std::exp(ref.x), ref.y, i});
            found_pole = found_pole || is_min;
        }
    }

    // Special cases (paper: "end-of-range" and "min/max" notices). When no
    // proper pole peak exists, report the most negative sample, flagged.
    if (!found_pole) {
        const auto it = std::min_element(p.begin(), p.end());
        const std::size_t i = static_cast<std::size_t>(it - p.begin());
        if (*it < -opt.min_peak) {
            const peak_flag flag
                = (i < lo || i > hi) ? peak_flag::end_of_range : peak_flag::min_max;
            plot.peaks.push_back({peak_kind::complex_pole, flag, f[i], *it, i});
        }
    }

    if (opt.suppress_pole_shoulders) {
        // A strong extremum of either sign is flanked by genuine opposite-
        // sign shoulders of its own curvature; drop the weak neighbours so
        // shoulders are not mis-reported as independent roots.
        std::vector<stability_peak> kept;
        kept.reserve(plot.peaks.size());
        for (const stability_peak& pk : plot.peaks) {
            bool shadowed = false;
            for (const stability_peak& other : plot.peaks) {
                if (other.kind == pk.kind)
                    continue;
                const real ratio = pk.freq_hz / other.freq_hz;
                if (ratio < 1.0 / opt.shoulder_span || ratio > opt.shoulder_span)
                    continue;
                if (std::fabs(other.value) >= opt.shoulder_ratio * std::fabs(pk.value)) {
                    shadowed = true;
                    break;
                }
            }
            if (!shadowed)
                kept.push_back(pk);
        }
        plot.peaks = std::move(kept);
    }

    std::sort(plot.peaks.begin(), plot.peaks.end(),
              [](const stability_peak& a, const stability_peak& b) {
                  return a.freq_hz < b.freq_hz;
              });
    return plot;
}

} // namespace acstab::core
