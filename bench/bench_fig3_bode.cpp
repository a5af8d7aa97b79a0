// Fig. 3: open-loop gain/phase plot with ~20 deg phase margin — the
// paper's traditional Bode baseline (loop broken with an L/C servo).
// Prints both curves and the margins; benchmarks the AC sweep.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/bode.h"
#include "circuits/opamp.h"
#include "core/ascii_plot.h"
#include "numeric/interpolation.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/measure.h"
#include "spice/units.h"

namespace {

using namespace acstab;

void print_fig3()
{
    std::puts("==============================================================================");
    std::puts("Fig. 3 — open-loop gain/phase (paper: PM ~20 deg, 0 dB at ~2.4 MHz,");
    std::puts("          -180 deg at ~3.5 MHz; natural frequency must fall in between)");
    std::puts("==============================================================================");
    spice::circuit c;
    const circuits::opamp_nodes n = circuits::build_opamp_open_loop(c);
    const std::vector<real> freqs = numeric::log_space(1e2, 1e9, 300);
    const analysis::frequency_response fr
        = analysis::measure_response(c, "vstim", n.out, freqs);
    std::vector<cplx> loop(fr.h.size());
    for (std::size_t i = 0; i < loop.size(); ++i)
        loop[i] = -fr.h[i]; // V(out)/V(stim) = -A(s); buffer loop gain = A(s)

    const std::vector<real> gain_db = spice::db20(loop);
    const std::vector<real> phase = spice::phase_deg_unwrapped(loop);
    core::ascii_plot_options po;
    po.title = "loop gain magnitude [dB] vs frequency";
    po.height = 16;
    std::fputs(core::ascii_plot(freqs, gain_db, po).c_str(), stdout);
    po.title = "\nloop phase [deg] vs frequency";
    std::fputs(core::ascii_plot(freqs, phase, po).c_str(), stdout);

    const spice::bode_margins m = spice::margins(freqs, loop);
    std::printf("\n0 dB crossover : %s\n", spice::format_frequency(m.unity_freq_hz).c_str());
    std::printf("phase margin   : %.1f deg\n", m.phase_margin_deg);
    if (m.has_phase_crossing) {
        std::printf("-180 deg at    : %s\n",
                    spice::format_frequency(m.phase_cross_freq_hz).c_str());
        std::printf("gain margin    : %.1f dB\n", m.gain_margin_db);
    }
    std::puts("");
}

void bm_open_loop_ac_sweep(benchmark::State& state)
{
    spice::circuit c;
    const circuits::opamp_nodes n = circuits::build_opamp_open_loop(c);
    (void)n;
    const std::vector<real> freqs
        = numeric::log_space(1e2, 1e9, static_cast<std::size_t>(state.range(0)));
    const spice::dc_result op = spice::dc_operating_point(c);
    for (auto _ : state) {
        const spice::ac_result res = spice::ac_sweep(c, freqs, op.solution);
        benchmark::DoNotOptimize(res.solution.data());
    }
    state.counters["points"] = static_cast<double>(freqs.size());
}
BENCHMARK(bm_open_loop_ac_sweep)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv)
{
    print_fig3();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
