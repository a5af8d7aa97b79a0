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
    std::puts("T [C]        fn            peak        zeta     est. PM");
    std::puts("------------------------------------------------------------------");
    for (const real temp : {-40.0, 0.0, 27.0, 85.0, 125.0}) {
        spice::circuit c;
        circuits::bias_params bp;
        bp.temp_celsius = temp;
        const std::string rail = circuits::build_standalone_bias(c, bp).rail;
        try {
            const core::node_stability ns = core::stability_analyzer(c).analyze_node(rail);
            if (!ns.has_peak)
                std::printf("%-12.4g (no complex-pole peak)\n", temp);
            else
                std::printf("%-12.4g %-12s %10.3f  %7.3f  %7.1f deg\n", temp,
                            spice::format_frequency(ns.dominant.freq_hz).c_str(),
                            ns.dominant.value, ns.zeta, ns.phase_margin_est_deg);
        } catch (const error& e) {
            std::printf("%-12.4g (failed: %s)\n", temp, e.what());
        }
    }
    return 0;
}
