// A2 — solver ablation: dense reference LU vs sparse Gilbert–Peierls on
// growing RC ladders (complex AC solves), linearize-once + factor-once
// (sweep engine) vs re-stamp-per-frequency, engine thread scaling on the
// all-nodes stability sweep, and (A2c) the symbolic-sharing + batched-
// solve axis on the shipped follower.sp netlist: PR 1 engine path
// (per-worker symbolic analysis, per-RHS allocating solves) vs the engine
// (shared symbolic + batched solves). Also audits that the
// steady-state sweep loop performs zero heap allocations per frequency
// point, via a global operator-new counter, and (A3) compares the fixed
// 40/decade grid against the adaptive rational-fit sweep on the watched
// node of each of the three shipped netlists (factor counts, wall time,
// phase-margin delta).
// Prints scaling tables plus one machine-readable JSON array (the
// ACSTAB_BENCH_JSON line) for the bench trajectory; benchmarks both paths.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuits/opamp.h"
#include "circuits/rlc.h"
#include "core/analyzer.h"
#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/reference_sweep.h"
#include "engine/sweep_engine.h"
#include "numeric/sparse_lu.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new bumps one relaxed atomic,
// so the difference in counts between two sweeps of different lengths
// measures the per-frequency allocation rate of the steady-state loop.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
} // namespace

void* operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    // posix_memalign, not std::aligned_alloc: operator new sizes need not
    // be multiples of the alignment.
    if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
        throw std::bad_alloc{};
    return p;
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace acstab;

struct measurement {
    std::string bench;
    std::string mode;
    std::size_t threads = 1;
    double ms = 0.0;
    double max_rel_err = 0.0;     ///< vs the serial re-stamp baseline
    double allocs_per_freq = -1.0; ///< steady-state heap allocations per frequency (-1 = n/a)
    long long factors = -1;        ///< LU factorizations of the sweep (-1 = n/a)
    double max_dpm_deg = -1.0;     ///< worst phase-margin delta vs fixed grid [deg] (-1 = n/a)
};

std::vector<measurement>& results()
{
    static std::vector<measurement> r;
    return r;
}

void emit_json()
{
    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < results().size(); ++i) {
        const measurement& m = results()[i];
        std::printf("%s{\"bench\":\"%s\",\"mode\":\"%s\",\"threads\":%zu,"
                    "\"ms\":%.4f,\"max_rel_err\":%.3g,\"allocs_per_freq\":%.3f,"
                    "\"factors\":%lld,\"max_dpm_deg\":%.4f}",
                    i == 0 ? "" : ",", m.bench.c_str(), m.mode.c_str(), m.threads, m.ms,
                    m.max_rel_err, m.allocs_per_freq, m.factors, m.max_dpm_deg);
    }
    std::puts("]");
}

double time_ac_ms(spice::circuit& c, spice::solver_kind kind, int repeats)
{
    const spice::dc_result op = spice::dc_operating_point(c);
    std::vector<real> freqs;
    for (int i = 0; i < 20; ++i)
        freqs.push_back(1e3 * std::pow(10.0, i * 0.3));
    spice::ac_options opt;
    opt.solver = kind;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
        const spice::ac_result res = spice::ac_sweep(c, freqs, op.solution, opt);
        benchmark::DoNotOptimize(res.solution.data());
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count() / repeats;
}

void print_ablation()
{
    std::puts("==============================================================================");
    std::puts("A2 — dense vs sparse MNA solves on RC ladders (20-point AC sweep, ms)");
    std::puts("==============================================================================");
    std::puts("sections  unknowns   dense [ms]   sparse [ms]   speedup");
    std::puts("------------------------------------------------------------------------------");
    for (const std::size_t sections : {10u, 40u, 160u, 640u}) {
        spice::circuit c;
        circuits::build_rc_ladder(c, sections);
        c.finalize();
        const int repeats = sections > 100 ? 1 : 5;
        const double dense = time_ac_ms(c, spice::solver_kind::dense, repeats);
        const double sparse = time_ac_ms(c, spice::solver_kind::sparse, repeats);
        std::printf("%8zu  %8zu   %10.2f   %11.2f   %7.1fx\n", sections, c.unknown_count(),
                    dense, sparse, dense / sparse);
    }

    std::puts("");
}

/// The pre-engine all-nodes algorithm: re-stamp every device, rebuild the
/// triplet matrix and freshly factor (full symbolic analysis) at every
/// frequency, then back-solve one unit-current RHS per node. Serial.
/// magnitude[node][freq].
std::vector<std::vector<real>> allnodes_restamp_baseline(spice::circuit& c,
                                                         const std::vector<real>& op,
                                                         const std::vector<real>& freqs,
                                                         real gshunt)
{
    c.finalize();
    const std::size_t n = c.unknown_count();
    const std::size_t nodes = c.node_count();
    const std::vector<bool> forced = c.source_forced_nodes();
    std::vector<std::vector<real>> magnitude(nodes, std::vector<real>(freqs.size(), 0.0));
    std::vector<cplx> rhs(n, cplx{});
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        spice::ac_params p;
        p.omega = to_omega(freqs[fi]);
        p.zero_all_sources = true;
        spice::system_builder<cplx> b(n);
        for (const auto& dev : c.devices())
            dev->stamp_ac(op, p, b);
        for (std::size_t i = 0; i < nodes; ++i)
            b.add(static_cast<spice::node_id>(i), static_cast<spice::node_id>(i),
                  cplx{gshunt, 0.0});
        const spice::factored_system<cplx> fact(b, spice::solver_kind::sparse);
        for (std::size_t k = 0; k < nodes; ++k) {
            if (forced[k])
                continue;
            std::fill(rhs.begin(), rhs.end(), cplx{});
            rhs[k] = cplx{1.0, 0.0};
            magnitude[k][fi] = std::abs(fact.solve(rhs)[k]);
        }
    }
    return magnitude;
}

/// A faithful replica of the PR 1 engine hot loop (serial): one symbolic
/// analysis per worker, per-frequency numeric refactorization, then per
/// right-hand side an O(n) scratch fill, an allocating solve, a residual
/// guard (with a temporary SpMV) on the first RHS only, and — as in the
/// real PR 1 run_chunks — each solution vector handed to a std::function
/// sink by move. This is the baseline the shared-symbolic + batched path
/// is measured against.
std::vector<std::vector<real>> allnodes_pr1_path(spice::circuit& c, const std::vector<real>& op,
                                                 const std::vector<real>& freqs, real gshunt)
{
    c.finalize();
    const std::size_t nodes = c.node_count();
    const std::vector<bool> forced = c.source_forced_nodes();
    engine::snapshot_options sopt;
    sopt.gshunt = gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op, sopt);
    std::vector<std::size_t> injections;
    for (std::size_t k = 0; k < nodes; ++k)
        if (!forced[k])
            injections.push_back(k);

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(freqs[freqs.size() / 2]), work);
    numeric::sparse_lu<cplx>::options lopt;
    lopt.prepare_refactor = true;
    std::optional<numeric::sparse_lu<cplx>> lu(std::in_place, work, lopt);
    bool refactored = false;

    std::vector<std::vector<real>> magnitude(nodes, std::vector<real>(freqs.size(), 0.0));
    const std::function<void(std::size_t, std::size_t, std::vector<cplx>&&)> out
        = [&magnitude, &injections](std::size_t fi, std::size_t ri, std::vector<cplx>&& sol) {
              magnitude[injections[ri]][fi] = std::abs(sol[injections[ri]]);
          };
    std::vector<cplx> rhs(snap.size(), cplx{});
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        snap.assemble(to_omega(freqs[fi]), work);
        try {
            lu->refactor(work);
            refactored = true;
        } catch (const numeric_error&) {
            lu.emplace(work, lopt);
            refactored = false;
        }
        for (std::size_t ri = 0; ri < injections.size(); ++ri) {
            std::fill(rhs.begin(), rhs.end(), cplx{});
            rhs[injections[ri]] = cplx{1.0, 0.0};
            std::vector<cplx> x = lu->solve(rhs);
            if (refactored) {
                refactored = false;
                const std::vector<cplx> yx = work.multiply(x);
                real rnorm = 0.0;
                for (std::size_t i = 0; i < yx.size(); ++i)
                    rnorm = std::max(rnorm, std::abs(yx[i] - rhs[i]));
                if (rnorm > 1e-10) {
                    lu.emplace(work, lopt);
                    x = lu->solve(rhs);
                }
            }
            out(fi, ri, std::move(x));
        }
    }
    return magnitude;
}

/// The same sweep through the unified engine: linearize once, one shared
/// pattern, refactor per frequency, batched multi-RHS, threaded.
std::vector<std::vector<real>> allnodes_engine(spice::circuit& c, const std::vector<real>& op,
                                               const std::vector<real>& freqs, real gshunt,
                                               std::size_t threads)
{
    c.finalize();
    const std::size_t nodes = c.node_count();
    const std::vector<bool> forced = c.source_forced_nodes();
    engine::snapshot_options sopt;
    sopt.gshunt = gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op, sopt);

    std::vector<engine::sweep_engine::injection> injections;
    for (std::size_t k = 0; k < nodes; ++k)
        if (!forced[k])
            injections.push_back({k, cplx{1.0, 0.0}});

    std::vector<std::vector<real>> magnitude(nodes, std::vector<real>(freqs.size(), 0.0));
    engine::sweep_engine_options eopt;
    eopt.threads = threads;
    engine::sweep_engine(eopt).run_injections(
        snap, freqs, injections,
        [&magnitude, &injections](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
            magnitude[injections[ri].index][fi] = std::abs(sol[injections[ri].index]);
        });
    return magnitude;
}

double max_rel_err(const std::vector<std::vector<real>>& a,
                   const std::vector<std::vector<real>>& b)
{
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t f = 0; f < a[k].size(); ++f) {
            const double scale = std::max({std::fabs(a[k][f]), std::fabs(b[k][f]), 1e-30});
            worst = std::max(worst, std::fabs(a[k][f] - b[k][f]) / scale);
        }
    return worst;
}

double time_ms(const std::function<void()>& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_engine_ablation()
{
    std::puts("==============================================================================");
    std::puts("A2b — all-nodes stability sweep on the op-amp buffer (40 ppd, 1 kHz - 1 GHz)");
    std::puts("      re-stamp-per-frequency vs linearize-once engine, with thread scaling");
    std::puts("==============================================================================");
    spice::circuit c;
    (void)circuits::build_opamp_buffer(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    core::sweep_spec sweep;
    sweep.points_per_decade = 40;
    const std::vector<real> freqs = sweep.frequencies();
    const real gshunt = 1e-9;

    std::vector<std::vector<real>> baseline;
    const double restamp_ms = time_ms([&] {
        baseline = allnodes_restamp_baseline(c, op.solution, freqs, gshunt);
    });
    std::printf("  re-stamp per frequency (serial)   : %8.1f ms\n", restamp_ms);
    results().push_back({"allnodes_opamp", "restamp", 1, restamp_ms, 0.0, -1.0});

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::vector<real>> mag;
        const double ms = time_ms([&] {
            mag = allnodes_engine(c, op.solution, freqs, gshunt, threads);
        });
        const double err = max_rel_err(baseline, mag);
        std::printf("  engine, %zu thread(s)              : %8.1f ms   (%.2fx, max rel err %.2g)\n",
                    threads, ms, restamp_ms / ms, err);
        results().push_back({"allnodes_opamp", "engine", threads, ms, err, -1.0});
    }

    std::puts("\n  single-RHS AC sweep on a 640-section RC ladder (20 points):");
    spice::circuit ladder;
    circuits::build_rc_ladder(ladder, 640);
    const spice::dc_result lop = spice::dc_operating_point(ladder);
    std::vector<real> lfreqs;
    for (int i = 0; i < 20; ++i)
        lfreqs.push_back(1e3 * std::pow(10.0, i * 0.3));
    const double ref_ms = time_ms([&] {
        const spice::ac_result r = engine::reference_ac_sweep(ladder, lfreqs, lop.solution);
        benchmark::DoNotOptimize(r.solution.data());
    });
    std::printf("    re-stamp + fresh factor (serial): %8.1f ms\n", ref_ms);
    results().push_back({"ac_ladder640", "restamp", 1, ref_ms, 0.0, -1.0});
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        spice::ac_options opt;
        opt.threads = threads;
        const double ms = time_ms([&] {
            const spice::ac_result r = spice::ac_sweep(ladder, lfreqs, lop.solution, opt);
            benchmark::DoNotOptimize(r.solution.data());
        });
        std::printf("    engine, %zu thread(s)            : %8.1f ms   (%.2fx)\n", threads, ms,
                    ref_ms / ms);
        results().push_back({"ac_ladder640", "engine", threads, ms, 0.0, -1.0});
    }

    std::puts("\nend-to-end analyze_all_nodes (report building included, ms):");
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        spice::circuit cc;
        (void)circuits::build_opamp_buffer(cc);
        core::stability_options opt;
        opt.sweep.points_per_decade = 40;
        opt.threads = threads;
        core::stability_analyzer an(cc, opt);
        (void)an.operating_point();
        const double ms = time_ms([&] {
            const core::stability_report rep = an.analyze_all_nodes();
            benchmark::DoNotOptimize(rep.nodes.data());
        });
        std::printf("  %zu thread(s): %8.1f ms\n", threads, ms);
        results().push_back({"analyze_all_nodes_opamp", "engine", threads, ms, 0.0, -1.0});
    }
    std::puts("");
}

/// A2c: the symbolic-sharing + batched-solve ablation on the shipped
/// follower netlist (the PR's acceptance workload), all serial so the
/// solver path — not scheduling — is what is measured.
void print_solver_path_ablation()
{
    std::puts("==============================================================================");
    std::puts("A2c — shared symbolic + batched solves, netlists/follower.sp all-nodes sweep");
    std::puts("      (100 kHz - 10 GHz, 50 ppd, serial; speedups vs the PR 1 engine path)");
    std::puts("==============================================================================");
    spice::parsed_netlist net = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR)
                                                          + "/follower.sp");
    spice::circuit& c = net.ckt;
    const spice::dc_result op = spice::dc_operating_point(c);
    core::sweep_spec sweep;
    sweep.fstart = 1e5;
    sweep.fstop = 1e10;
    sweep.points_per_decade = 50;
    const std::vector<real> freqs = sweep.frequencies();
    const real gshunt = 1e-9;
    // Each mode sweep is ~0.1 ms, far below scheduler noise: time groups
    // of repeats and report the best group (the standard noise floor).
    const int repeats = 50;
    const int groups = 6;

    std::vector<std::vector<real>> baseline = allnodes_restamp_baseline(c, op.solution, freqs,
                                                                        gshunt);

    struct mode {
        const char* name;
        const char* label;
        std::function<std::vector<std::vector<real>>()> run;
    };
    const std::vector<mode> modes = {
        {"pr1_path", "PR 1 path (per-worker symbolic, alloc solves)",
         [&] { return allnodes_pr1_path(c, op.solution, freqs, gshunt); }},
        {"shared_batched", "shared symbolic + batched solves",
         [&] { return allnodes_engine(c, op.solution, freqs, gshunt, 1); }},
    };

    double pr1_ms = 0.0;
    for (const mode& m : modes) {
        std::vector<std::vector<real>> mag;
        (void)m.run(); // warm caches (snapshot symbolic, thread pool)
        double ms = 1e300;
        for (int g = 0; g < groups; ++g) {
            const double group_ms = time_ms([&] {
                                        for (int r = 0; r < repeats; ++r) {
                                            mag = m.run();
                                            benchmark::DoNotOptimize(mag.data());
                                        }
                                    })
                                    / repeats;
            ms = std::min(ms, group_ms);
        }
        const double err = max_rel_err(baseline, mag);
        if (pr1_ms == 0.0)
            pr1_ms = ms;
        std::printf("  %-46s: %8.3f ms   (%.2fx, max rel err %.2g)\n", m.label, ms, pr1_ms / ms,
                    err);
        results().push_back({"allnodes_follower", m.name, 1, ms, err, -1.0});
    }
    std::puts("");
}

/// Verify the zero-allocations-per-frequency claim: run the follower
/// all-nodes sweep at two grid densities and attribute the difference in
/// global operator-new counts to the extra frequency points. Setup costs
/// (snapshot, worker staging, one symbolic analysis per run) are identical
/// in both runs and cancel.
void print_alloc_audit()
{
    std::puts("==============================================================================");
    std::puts("A2d — steady-state allocation audit (operator-new deltas between grid sizes)");
    std::puts("==============================================================================");
    spice::parsed_netlist net = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR)
                                                          + "/follower.sp");
    spice::circuit& c = net.ckt;
    const spice::dc_result op = spice::dc_operating_point(c);

    const auto sweep_allocs = [&](std::size_t ppd, std::size_t* nf) -> std::size_t {
        core::sweep_spec sweep;
        sweep.fstart = 1e5;
        sweep.fstop = 1e10;
        sweep.points_per_decade = ppd;
        const std::vector<real> freqs = sweep.frequencies();
        *nf = freqs.size();
        const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
        const auto mag = allnodes_engine(c, op.solution, freqs, 1e-9, 1);
        benchmark::DoNotOptimize(mag.data());
        return g_alloc_count.load(std::memory_order_relaxed) - before;
    };

    std::size_t nf_small = 0, nf_large = 0;
    const std::size_t a_small = sweep_allocs(50, &nf_small);
    const std::size_t a_large = sweep_allocs(100, &nf_large);
    const double per_freq = static_cast<double>(a_large) - static_cast<double>(a_small);
    const double rate = per_freq / static_cast<double>(nf_large - nf_small);
    std::printf("  %zu points: %zu allocs; %zu points: %zu allocs\n", nf_small, a_small,
                nf_large, a_large);
    std::printf("  steady-state allocations per added frequency point: %.3f\n\n", rate);
    results().push_back({"alloc_audit_follower", "engine_steady_state", 1, 0.0, 0.0, rate});
}

/// Factorizations of the adaptive driver on the single-node sweep that
/// analyze_node(node) runs with `opt`: the same snapshot, injection and
/// channel, driven directly because node_stability carries no count.
std::size_t adaptive_factorizations(spice::circuit& c, const core::stability_options& opt,
                                    const std::string& node)
{
    core::stability_analyzer an(c, opt);
    engine::snapshot_options sopt;
    sopt.gmin = opt.gmin;
    sopt.gshunt = opt.gshunt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, an.operating_point(), sopt);
    engine::adaptive_sweep_options aopt;
    aopt.fstart = opt.sweep.fstart;
    aopt.fstop = opt.sweep.fstop;
    aopt.output_points_per_decade = opt.sweep.points_per_decade;
    aopt.anchors_per_decade = opt.anchors_per_decade;
    aopt.fit_tol = opt.fit_tol;
    const std::size_t k = static_cast<std::size_t>(*c.find_node(node));
    return engine::adaptive_sweep(aopt)
        .run_injections(snap, {{k, cplx{opt.stimulus_amps, 0.0}}}, {{0, k}})
        .factorizations;
}

/// A3 — adaptive frequency grid vs the fixed 40/decade sweep on the
/// watched node of each shipped netlist (single-node stability; the
/// all-nodes analysis always runs the fixed grid): LU factorization
/// counts, wall time, and the phase-margin delta at that node. The
/// adaptive_follower rows back the CI guard (adaptive factor count must
/// stay <= 1/3 of fixed).
void print_adaptive_ablation()
{
    std::puts("==============================================================================");
    std::puts("A3 — fixed 40/decade grid vs adaptive rational-fit sweep (single-node analysis)");
    std::puts("==============================================================================");
    std::puts("netlist          node    mode      factors   wall [ms]   |dPM| [deg]");
    std::puts("------------------------------------------------------------------------------");

    struct workload {
        const char* key;
        const char* file;
        const char* node;
        real fstart;
        real fstop;
    };
    const std::vector<workload> workloads = {
        {"adaptive_follower", "follower.sp", "f_out", 1e5, 1e10},
        {"adaptive_rlc_tank", "rlc_tank.sp", "tank", 1e4, 1e8},
        {"adaptive_two_pole", "two_pole_loop.sp", "out", 1e2, 1e8},
    };
    const int repeats = 20;
    const int groups = 3;

    for (const workload& w : workloads) {
        spice::parsed_netlist net = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR)
                                                              + "/" + w.file);
        const auto options = [&w](bool adaptive) {
            core::stability_options opt;
            opt.sweep = {w.fstart, w.fstop, 40};
            opt.adaptive = adaptive;
            return opt;
        };
        const auto run_mode = [&](bool adaptive, core::node_stability& ns) {
            core::stability_analyzer an(net.ckt, options(adaptive));
            ns = an.analyze_node(w.node); // warm caches, keep the result
            double ms = 1e300;
            for (int g = 0; g < groups; ++g) {
                const double group_ms = time_ms([&] {
                                            for (int r = 0; r < repeats; ++r) {
                                                ns = an.analyze_node(w.node);
                                                benchmark::DoNotOptimize(ns.plot.p.data());
                                            }
                                        })
                                        / repeats;
                ms = std::min(ms, group_ms);
            }
            return ms;
        };

        core::node_stability fixed, adaptive;
        const double fixed_ms = run_mode(false, fixed);
        const double adaptive_ms = run_mode(true, adaptive);
        const std::size_t fixed_factors = options(false).sweep.frequencies().size();
        const std::size_t adaptive_factors
            = adaptive_factorizations(net.ckt, options(true), w.node);
        const double dpm = fixed.has_peak && adaptive.has_peak
            ? std::fabs(adaptive.phase_margin_est_deg - fixed.phase_margin_est_deg)
            : 0.0;

        std::printf("%-16s %-7s fixed     %7zu   %9.3f   %s\n", w.file, w.node, fixed_factors,
                    fixed_ms, "(reference)");
        std::printf("%-16s %-7s adaptive  %7zu   %9.3f   %11.4f   (%.1fx fewer factors)\n",
                    w.file, w.node, adaptive_factors, adaptive_ms, dpm,
                    static_cast<double>(fixed_factors)
                        / static_cast<double>(std::max<std::size_t>(1, adaptive_factors)));
        results().push_back({w.key, "fixed_grid", 1, fixed_ms, 0.0, -1.0,
                             static_cast<long long>(fixed_factors), -1.0});
        results().push_back({w.key, "adaptive", 1, adaptive_ms, 0.0, -1.0,
                             static_cast<long long>(adaptive_factors), dpm});
    }
    std::puts("");
}

void bm_ladder_ac(benchmark::State& state)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, static_cast<std::size_t>(state.range(0)));
    const spice::dc_result op = spice::dc_operating_point(c);
    spice::ac_options opt;
    opt.solver = state.range(1) == 0 ? spice::solver_kind::dense : spice::solver_kind::sparse;
    for (auto _ : state) {
        const spice::ac_result res = spice::ac_sweep(c, {1e6}, op.solution, opt);
        benchmark::DoNotOptimize(res.solution.data());
    }
    state.SetLabel(state.range(1) == 0 ? "dense" : "sparse");
}
BENCHMARK(bm_ladder_ac)->Args({40, 0})->Args({40, 1})->Args({320, 0})->Args({320, 1});

} // namespace

int main(int argc, char** argv)
{
    print_ablation();
    print_engine_ablation();
    print_solver_path_ablation();
    print_alloc_audit();
    print_adaptive_ablation();
    emit_json();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
