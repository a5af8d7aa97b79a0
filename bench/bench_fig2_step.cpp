// Fig. 2: small-signal step response of the buffer showing ~55 % overshoot
// (the paper's traditional "node pulsing" baseline). Prints the waveform
// as an ASCII chart plus the measured metrics; benchmarks the transient
// engine at two step densities.
//
// Also runs the transient solver-path ablation: the seed one-shot path
// (fresh symbolic analysis + factorization per Newton iteration) against
// the shared-symbolic path (factor the pattern once, numeric-only
// refactorization per solve) on the buffer and on a >= 2k-node generated
// RC mesh, checking the waveforms agree to solver rounding. Emits one
// machine-readable ACSTAB_BENCH_JSON line for the CI speed guard.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/transient_overshoot.h"
#include "circuits/opamp.h"
#include "core/ascii_plot.h"
#include "gen/netlist_gen.h"
#include "spice/circuit.h"
#include "spice/devices/sources.h"
#include "spice/parser/netlist_parser.h"
#include "spice/tran_analysis.h"
#include "spice/units.h"

namespace {

using namespace acstab;

void print_fig2()
{
    std::puts("==============================================================================");
    std::puts("Fig. 2 — buffer step response (paper: ~55 % overshoot, close to the 53 %");
    std::puts("          predicted from the stability plot)");
    std::puts("==============================================================================");
    spice::circuit c;
    circuits::opamp_params p;
    p.step_volts = 0.01;
    const circuits::opamp_nodes n = circuits::build_opamp_buffer(c, p);
    analysis::step_options so;
    so.tstop = 6e-6;
    const analysis::step_response_metrics m = analysis::measure_step_response(c, n.out, so);

    // Render the interesting window around the step.
    std::vector<real> t;
    std::vector<real> v;
    const std::vector<real> full = spice::node_waveform(c, m.raw, n.out);
    for (std::size_t i = 0; i < m.raw.time.size(); ++i) {
        if (m.raw.time[i] >= 0.8e-6 && m.raw.time[i] <= 4e-6) {
            t.push_back(m.raw.time[i]);
            v.push_back(full[i]);
        }
    }
    core::ascii_plot_options po;
    po.log_x = false;
    po.title = "V(out) vs time [0.8us .. 4us]";
    std::fputs(core::ascii_plot(t, v, po).c_str(), stdout);

    std::printf("\novershoot        : %.1f %%\n", m.overshoot_pct);
    std::printf("ringing frequency: %s\n", spice::format_frequency(m.ringing_freq_hz).c_str());
    std::printf("settling (2%%)    : %.3g s\n", m.settling_time_s);
    std::printf("final value      : %.4f V\n\n", m.final_value);
}

// --- transient solver-path ablation ----------------------------------------

struct tran_row {
    std::string kind;  ///< "buffer" | "rcmesh"
    std::size_t unknowns = 0;
    std::string mode;  ///< "oneshot" | "shared"
    double ms = 0.0;
    std::size_t solves = 0;          ///< shared-path Newton solves (0 on oneshot)
    std::size_t symbolic_builds = 0; ///< shared-path symbolic analyses
    double max_rel_err = 0.0;        ///< vs the oneshot waveform (scale-relative)
};

std::vector<tran_row>& tran_rows()
{
    static std::vector<tran_row> r;
    return r;
}

[[nodiscard]] double time_tran_ms(spice::circuit& c, const spice::tran_options& opt,
                                  spice::tran_result& out, int repeats)
{
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        out = spice::transient(c, opt);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < best)
            best = ms;
    }
    return best;
}

[[nodiscard]] double waveform_rel_err(const spice::tran_result& a,
                                      const spice::tran_result& b)
{
    if (a.time.size() != b.time.size() || a.unknowns != b.unknowns)
        return 1.0;
    double scale = 1.0;
    for (const real v : a.states)
        scale = std::max(scale, std::fabs(static_cast<double>(v)));
    double worst = 0.0;
    for (std::size_t k = 0; k < a.states.size(); ++k)
        worst = std::max(worst, std::fabs(static_cast<double>(a.states[k] - b.states[k])));
    return worst / scale;
}

void ablate_circuit(const std::string& kind, spice::circuit& c, real tstop, real dt,
                    int repeats)
{
    spice::tran_options oneshot;
    oneshot.tstop = tstop;
    oneshot.dt = dt;
    oneshot.shared_solver = false;
    spice::tran_options shared = oneshot;
    shared.shared_solver = true;

    spice::tran_result res_oneshot;
    spice::tran_result res_shared;
    const double ms_oneshot = time_tran_ms(c, oneshot, res_oneshot, repeats);
    const double ms_shared = time_tran_ms(c, shared, res_shared, repeats);
    const double err = waveform_rel_err(res_oneshot, res_shared);
    const std::size_t unknowns = res_shared.unknowns;

    tran_rows().push_back({kind, unknowns, "oneshot", ms_oneshot, 0, 0, 0.0});
    tran_rows().push_back({kind, unknowns, "shared", ms_shared,
                           res_shared.solver.solves, res_shared.solver.symbolic_builds,
                           err});
    std::printf("%-8s n=%5zu  oneshot %9.2f ms   shared %9.2f ms   %5.2fx   "
                "max_rel_err %.3g\n",
                kind.c_str(), unknowns, ms_oneshot, ms_shared,
                ms_oneshot / std::max(ms_shared, 1e-9), err);
}

void run_tran_ablation(bool quick)
{
    std::puts("==============================================================================");
    std::puts("Transient solver-path ablation: one-shot factorization per Newton iteration");
    std::puts("vs shared symbolic + numeric-only refactorization (same Newton iteration,");
    std::puts("waveforms must agree to solver rounding)");
    std::puts("==============================================================================");
    {
        spice::circuit c;
        circuits::opamp_params p;
        p.step_volts = 0.01;
        (void)circuits::build_opamp_buffer(c, p);
        ablate_circuit("buffer", c, 6e-6, 6e-6 / 1000.0, quick ? 1 : 3);
    }
    {
        // >= 2k-unknown RC mesh; the tool's vin is re-pointed at a step so
        // the run has real dynamics instead of a settled DC rail.
        gen::gen_options gopt;
        gopt.size = 2048;
        spice::parsed_netlist net = spice::parse_netlist(gen::rcmesh_netlist(gopt));
        auto* vin = dynamic_cast<spice::vsource*>(net.ckt.find_device("vin"));
        if (vin != nullptr)
            vin->set_spec(spice::waveform_spec::make_step(0.0, 1.0, 0.0, 1e-8));
        ablate_circuit("rcmesh", net.ckt, 2e-5, 1e-7, quick ? 1 : 2);
    }

    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < tran_rows().size(); ++i) {
        const tran_row& r = tran_rows()[i];
        std::printf("%s{\"bench\":\"tran_solver\",\"kind\":\"%s\",\"unknowns\":%zu,"
                    "\"mode\":\"%s\",\"ms\":%.4f,\"solves\":%zu,"
                    "\"symbolic_builds\":%zu,\"max_rel_err\":%.3g}",
                    i == 0 ? "" : ",", r.kind.c_str(), r.unknowns, r.mode.c_str(), r.ms,
                    r.solves, r.symbolic_builds, r.max_rel_err);
    }
    std::puts("]");
}

void bm_buffer_transient(benchmark::State& state)
{
    spice::circuit c;
    circuits::opamp_params p;
    p.step_volts = 0.01;
    const circuits::opamp_nodes n = circuits::build_opamp_buffer(c, p);
    (void)n;
    spice::tran_options opt;
    opt.tstop = 6e-6;
    opt.dt = opt.tstop / static_cast<real>(state.range(0));
    for (auto _ : state) {
        const spice::tran_result res = spice::transient(c, opt);
        benchmark::DoNotOptimize(res.states.data());
    }
    state.counters["steps"] = static_cast<double>(state.range(0));
}
BENCHMARK(bm_buffer_transient)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

} // namespace

int main(int argc, char** argv)
{
    // --quick is ours (single timing pass for CI), not google-benchmark's:
    // strip it before Initialize.
    bool quick = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    print_fig2();
    run_tran_ablation(quick);
    if (quick)
        return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
