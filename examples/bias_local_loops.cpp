// The paper's Fig. 5 scenario: a zero-TC bias circuit hides a local loop
// near 50 MHz that black-box analysis of the main amplifier never sees.
// The all-nodes stability sweep finds it; the paper's fix — 1 pF at the
// collector of Q3 — damps it. This example shows the report before and
// after the fix.
#include <cstdio>

#include "analysis/pole_zero.h"
#include "circuits/bias.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "core/sweeps.h"
#include "spice/units.h"

namespace {

void run(bool compensated)
{
    using namespace acstab;
    spice::circuit c;
    circuits::bias_params bp;
    bp.compensated = compensated;
    circuits::build_standalone_bias(c, bp);

    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e10;
    opt.sweep.points_per_decade = 50;
    core::stability_analyzer analyzer(c, opt);

    std::printf("==== zero-TC bias circuit, %s ====\n",
                compensated ? "with the 1 pF fix at Q3's collector" : "uncompensated");
    const core::stability_report report = analyzer.analyze_all_nodes();
    std::fputs(core::format_all_nodes_report(report).c_str(), stdout);

    const auto poles
        = analysis::complex_pairs(analysis::circuit_poles(c, analyzer.operating_point()));
    std::puts("complex poles (pencil cross-check):");
    for (const auto& p : poles)
        std::printf("  %-12s zeta = %.3f\n", spice::format_frequency(p.freq_hz).c_str(),
                    p.zeta);
    std::puts("");
}

} // namespace

int main()
{
    run(false);
    run(true);

    // The original tool lists "in-tool sweeps (TEMP etc)" as an upcoming
    // feature; here is that feature: the local loop across temperature.
    using namespace acstab;
    std::puts("==== local loop vs temperature (rail node) ====");
    core::param_grid grid;
    grid.temps = {-40.0, 0.0, 27.0, 85.0, 125.0};
    const auto points = core::sweep_stability_grid(
        [](spice::circuit& c, const core::grid_point& pt) {
            circuits::bias_params bp;
            bp.temp_celsius = *pt.temp_celsius;
            return circuits::build_standalone_bias(c, bp).rail;
        },
        grid);
    std::puts("T [C]        fn            peak        zeta     est. PM");
    std::puts("------------------------------------------------------------------");
    for (const core::grid_point_result& p : points) {
        const real temp = *p.point.temp_celsius;
        if (p.status != core::point_status::ok)
            std::printf("%-12.4g (failed: %s)\n", temp, p.error.c_str());
        else if (!p.node.has_peak)
            std::printf("%-12.4g (no complex-pole peak)\n", temp);
        else
            std::printf("%-12.4g %-12s %10.3f  %7.3f  %7.1f deg\n", temp,
                        spice::format_frequency(p.node.dominant.freq_hz).c_str(),
                        p.node.dominant.value, p.node.zeta, p.node.phase_margin_est_deg);
    }
    return 0;
}
