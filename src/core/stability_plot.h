// The paper's stability plot (eq. 1.3) and its peak analysis.
//
// Given the magnitude of a node's AC response over a log-frequency sweep,
// compute P(w) = d/dw[(d|T|/dw) w/|T|] w  ==  d^2 ln|T| / d(ln w)^2 and
// locate its extrema: a negative peak marks a complex-pole pair (a loop)
// at its natural frequency, a positive peak a complex-zero pair. Peak
// value -1/zeta^2 encodes the loop's damping ratio (eq. 1.4).
#ifndef ACSTAB_CORE_STABILITY_PLOT_H
#define ACSTAB_CORE_STABILITY_PLOT_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "engine/sweep_channels.h"

namespace acstab::core {

using engine::sweep_spec;

enum class peak_kind {
    complex_pole, ///< negative peak: a loop's dominant root
    complex_zero  ///< positive peak: complex zero pair
};

/// Special-case classification from the paper's all-nodes report.
enum class peak_flag {
    normal,       ///< proper interior extremum
    end_of_range, ///< extremum at the sweep boundary: widen the sweep
    min_max       ///< no bracketed extremum; global min/max reported
};

struct stability_peak {
    peak_kind kind = peak_kind::complex_pole;
    peak_flag flag = peak_flag::normal;
    real freq_hz = 0.0;     ///< natural frequency (parabolic-refined)
    real value = 0.0;       ///< performance index (negative for poles)
    /// Index of the extreme sample into the plot's freq_hz/p arrays
    /// (which may be a coalesced subset of the input grid; see
    /// plot_options::min_separation_decades).
    std::size_t index = 0;
};

struct plot_options {
    /// Minimum |P| for a peak to be reported.
    real min_peak = 0.05;
    /// Grid points closer than this (in decades) are coalesced before
    /// differentiation. A caller's non-uniform grid can carry
    /// near-duplicate frequencies whose tiny spacing amplifies rounding
    /// noise catastrophically in the second-derivative stencils; uniform
    /// sweeps at any practical density, the adaptive sweep's included,
    /// are far coarser than this and are unaffected.
    real min_separation_decades = 1e-4;
    /// Use the direct eq.-(1.3) discretization instead of the log-log
    /// curvature form (ablation A3; results agree to discretization error).
    bool use_direct_formula = false;
    /// A complex-pole dip is flanked by genuine positive shoulders of its
    /// own curvature; suppress positive peaks that sit within
    /// shoulder_span of a much stronger pole peak so they are not
    /// mis-reported as complex zeros.
    bool suppress_pole_shoulders = true;
    real shoulder_span = 2.5;  ///< frequency ratio counted as "adjacent"
    real shoulder_ratio = 2.0; ///< pole must dominate the zero by this factor
};

struct stability_plot {
    std::vector<real> freq_hz;
    std::vector<real> magnitude;
    std::vector<real> p; ///< stability function samples
    std::vector<stability_peak> peaks; ///< sorted by frequency

    /// The most negative complex-pole peak (normal first, then flagged),
    /// or nullptr when the plot shows no pole signature.
    [[nodiscard]] const stability_peak* dominant_pole() const noexcept;
};

/// Compute the stability plot from sampled |T(j 2 pi f)|.
[[nodiscard]] stability_plot compute_stability_plot(std::span<const real> freq_hz,
                                                    std::span<const real> magnitude,
                                                    const plot_options& opt = {});

} // namespace acstab::core

#endif // ACSTAB_CORE_STABILITY_PLOT_H
