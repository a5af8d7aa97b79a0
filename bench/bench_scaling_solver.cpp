// A5 — large-circuit solver scaling on the generated stress corpus
// (`acstab gen`, src/gen/netlist_gen.h).
//
//   * fill table: L+U nonzeros of the shared symbolic factorization under
//     the natural order and approximate minimum degree on RC ladders and
//     2-D RC meshes. The mesh is the discriminating workload — the
//     natural order fills like n*k while minimum degree stays near
//     n*log n. CI asserts the >= 2x reduction from the rcmesh rows of
//     this table.
//   * phase breakdown ("scaling_phase" rows): wall time of each solver
//     phase in isolation — the approximate-minimum-degree ordering, the
//     full symbolic analysis, one numeric refactorization on the column
//     vs the supernodal path, and one 24-RHS batched back-solve on each
//     path (with the blocked-vs-column solution equivalence recorded as
//     max_rel_err). The refactor rows also carry the factorization's
//     complex multiply-add count (cmacs) and its rate (gflops, 8 real
//     flops per complex multiply-add). CI's perf-ratio guard reads the
//     refactor_column / refactor_supernodal pair of this table.
//   * sweep ablation: wall time per frequency point of a serial
//     injection sweep under the solver configurations, all on
//     approximate minimum degree —
//       amdx_scalar    column path, scalar batch kernel (the baseline)
//       amdx_sn_simd   the supernodal/blocked numeric path with its
//                      split real/imag batch kernel (the default
//                      configuration)
//     with each configuration's answers checked against the baseline.
//     The ablation runs in both right-hand-side regimes: 24 probes (the
//     all-nodes stability shape) and 1 probe (the single-node stability
//     / ac / impedance / loopgain shape).
//
// Prints tables plus one machine-readable ACSTAB_BENCH_JSON line (see
// README "Benchmarks"; BENCH_9.json at the repo root is an older run
// that still carries rows of retired modes). --quick restricts
// sizes/grids for the CI smoke job; this binary registers no
// google-benchmark cases.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <memory>

#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "gen/netlist_gen.h"
#include "numeric/amd_order.h"
#include "numeric/interpolation.h"
#include "numeric/sparse_factor.h"
#include "spice/ac_analysis.h"
#include "spice/circuit.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

struct row {
    std::string bench;          ///< "scaling_fill" | "scaling_sweep"
    std::string kind;           ///< "ladder" | "rcmesh"
    std::size_t unknowns = 0;
    std::string mode;           ///< ordering name or sweep configuration
    long long probes = -1;      ///< right-hand sides of the sweep ablation
    long long lu_nnz = -1;      ///< L+U nonzeros of the symbolic pattern
    double ms_per_freq = -1.0;  ///< sweep wall time / frequency count
    double max_rel_err = 0.0;   ///< vs the amdx_scalar baseline magnitudes
    long long cmacs = -1;       ///< refactor rows: complex multiply-adds per factorization
    double gflops = -1.0;       ///< refactor rows: 8 * cmacs / wall time
};

std::vector<row>& results()
{
    static std::vector<row> r;
    return r;
}

void emit_json()
{
    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < results().size(); ++i) {
        const row& r = results()[i];
        std::printf("%s{\"bench\":\"%s\",\"kind\":\"%s\",\"unknowns\":%zu,"
                    "\"mode\":\"%s\",\"probes\":%lld,\"lu_nnz\":%lld,\"ms_per_freq\":%.5f,"
                    "\"max_rel_err\":%.3g,\"cmacs\":%lld,\"gflops\":%.3f}",
                    i == 0 ? "" : ",", r.bench.c_str(), r.kind.c_str(), r.unknowns,
                    r.mode.c_str(), r.probes, r.lu_nnz, r.ms_per_freq, r.max_rel_err, r.cmacs,
                    r.gflops);
    }
    std::puts("]");
}

double time_ms(const std::function<void()>& fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// One generated workload, parsed and linearized once, shared by the
/// fill table and the sweep ablation.
struct workload {
    std::string kind;
    spice::parsed_netlist net;
    std::vector<real> op;

    workload(const std::string& kind_, std::size_t size)
        : kind(kind_)
    {
        gen::gen_options gopt;
        gopt.size = size;
        net = spice::parse_netlist(gen::generate_netlist(kind, gopt));
        net.ckt.finalize();
        op = spice::dc_operating_point(net.ckt).solution;
    }
};

/// L+U nonzero counts of the symbolic pattern under the natural order
/// and approximate minimum degree, on the complex MNA matrix assembled at
/// the band's middle frequency.
void print_fill_table(const std::vector<std::size_t>& sizes)
{
    std::puts("==============================================================================");
    std::puts("A5a — symbolic fill (L+U nonzeros) vs column pre-ordering, generated corpus");
    std::puts("==============================================================================");
    std::puts("kind     unknowns    A nnz      none  amd-approx  none/amdx");
    std::puts("------------------------------------------------------------------------------");
    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            const engine::linearized_snapshot snap(w.net.ckt, w.op, {});
            numeric::csc_matrix<cplx> work = snap.make_workspace();
            snap.assemble(to_omega(1e6), work);
            const auto fill = [&](numeric::column_ordering o, const char* name) {
                numeric::lu_options lopt;
                lopt.ordering = o;
                const numeric::symbolic_lu<cplx> sym(work, lopt);
                const std::size_t nnz = sym.lower_nnz() + sym.upper_nnz();
                results().push_back({"scaling_fill", kind, snap.size(), name, -1,
                                     static_cast<long long>(nnz)});
                return nnz;
            };
            const std::size_t none = fill(numeric::column_ordering::none, "none");
            const std::size_t amdx = fill(numeric::column_ordering::amd_approx, "amd-approx");
            std::printf("%-8s %8zu %8zu  %8zu    %8zu     %5.2fx\n", kind.c_str(), snap.size(),
                        work.nnz(), none, amdx,
                        static_cast<double>(none) / static_cast<double>(amdx));
        }
    }
    std::puts("");
}

/// Complex multiply-adds of one numeric factorization on the symbolic
/// pattern: every U entry (j, k) above the diagonal updates column k with
/// L's column j, one multiply-add per entry of it.
long long factor_cmacs(const numeric::symbolic_lu<cplx>& sym)
{
    long long total = 0;
    for (std::size_t k = 0; k < sym.size(); ++k)
        for (std::size_t p = sym.ucol_ptr()[k]; p + 1 < sym.ucol_ptr()[k + 1]; ++p) {
            const std::size_t j = sym.urow()[p];
            total += static_cast<long long>(sym.lcol_ptr()[j + 1] - sym.lcol_ptr()[j]);
        }
    return total;
}

/// Wall time of each solver phase in isolation — approximate minimum
/// degree ordering, full symbolic analysis, one numeric
/// refactorization and one 24-RHS batched back-solve on the column and
/// the supernodal paths — plus the blocked-vs-column solution agreement.
void print_phase_breakdown(const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::puts("A5d — per-phase wall time [ms], column vs supernodal numeric paths");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  order_amdx  symbolic  refac_col  refac_sn  "
              "solve24_col  solve24_sn  sn err   Mcmac  GF/s col  GF/s sn");
    std::puts("------------------------------------------------------------------------------");
    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            const engine::linearized_snapshot snap(w.net.ckt, w.op, {});
            const std::size_t n = snap.size();
            numeric::csc_matrix<cplx> work = snap.make_workspace();
            snap.assemble(to_omega(1e6), work);
            const int reps = size > 4000 ? std::max(1, repeats / 2) : repeats;

            const auto best_of_n = [](int n, const std::function<void()>& fn) {
                double ms = 1e300;
                for (int rep = 0; rep < n; ++rep)
                    ms = std::min(ms, time_ms(fn));
                return ms;
            };
            const auto best_of = [&](const std::function<void()>& fn) {
                return best_of_n(reps, fn);
            };

            std::vector<std::size_t> order;
            const double ms_amdx = best_of([&] {
                order = numeric::approx_minimum_degree_order(n, work.col_ptr(), work.row_idx());
            });

            numeric::lu_options lopt;
            lopt.ordering = numeric::column_ordering::amd_approx;
            std::shared_ptr<const numeric::symbolic_lu<cplx>> sym;
            const double ms_sym = best_of([&] {
                sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work, lopt);
            });

            numeric::numeric_lu<cplx> col(sym);
            numeric::numeric_lu<cplx> blk(sym);
            blk.set_batch_kernel(numeric::batch_kernel::simd);
            blk.set_supernodal(true);
            col.refactor(work); // prime allocations outside the timed region
            blk.refactor(work);
            // The refactor columns feed CI's supernodal guard, so they take
            // the best of at least 3 passes at every size: one pass on a
            // loaded shared host can read the column path's speed.
            const int refactor_reps = std::max(3, reps);
            const double ms_refac_col = best_of_n(refactor_reps, [&] { col.refactor(work); });
            const double ms_refac_sn = best_of_n(refactor_reps, [&] { blk.refactor(work); });

            constexpr std::size_t nrhs = 24;
            std::vector<std::vector<cplx>> rhs(nrhs, std::vector<cplx>(n, cplx{}));
            for (std::size_t r = 0; r < nrhs; ++r)
                rhs[r][(r * 31) % n] = cplx{1.0, 0.0};
            std::vector<const cplx*> cols;
            for (const auto& b : rhs)
                cols.push_back(b.data());
            std::vector<cplx> xc(n * nrhs);
            std::vector<cplx> xb(n * nrhs);
            const double ms_solve_col = best_of([&] {
                col.solve_batch(cols.data(), nrhs, xc.data());
            });
            const double ms_solve_sn = best_of([&] {
                blk.solve_batch(cols.data(), nrhs, xb.data());
            });
            double err = 0.0;
            for (std::size_t i = 0; i < xc.size(); ++i) {
                const double mag = std::max(std::abs(xc[i]), std::abs(xb[i]));
                if (mag > 1e-30)
                    err = std::max(err, std::abs(xc[i] - xb[i]) / mag);
            }

            const long long cmacs = factor_cmacs(*sym);
            const auto gflops = [cmacs](double ms) { return 8.0 * static_cast<double>(cmacs) / (ms * 1e6); };
            std::printf("%-8s %8zu    %8.2f  %8.2f   %8.2f  %8.2f     %8.3f    %8.3f  %.2g  %6.2f  %8.2f  %7.2f\n",
                        kind.c_str(), n, ms_amdx, ms_sym, ms_refac_col, ms_refac_sn,
                        ms_solve_col, ms_solve_sn, err, static_cast<double>(cmacs) * 1e-6,
                        gflops(ms_refac_col), gflops(ms_refac_sn));
            const auto phase_row = [&](const char* mode, double ms, long long probes,
                                       double rel_err) {
                results().push_back({"scaling_phase", kind, n, mode, probes, -1, ms, rel_err});
            };
            const auto refactor_row = [&](const char* mode, double ms) {
                results().push_back({"scaling_phase", kind, n, mode, -1, -1, ms, 0.0, cmacs,
                                     gflops(ms)});
            };
            phase_row("order_amd_approx", ms_amdx, -1, 0.0);
            phase_row("symbolic", ms_sym, -1, 0.0);
            refactor_row("refactor_column", ms_refac_col);
            refactor_row("refactor_supernodal", ms_refac_sn);
            phase_row("solve24_column", ms_solve_col, 24, 0.0);
            phase_row("solve24_supernodal", ms_solve_sn, 24, err);
        }
    }
    std::puts("");
}

/// Serial batched injection sweep (the all-nodes stability shape: one
/// unit-current stimulus per probed node) under one solver configuration.
/// magnitude[ri][fi] of the response at the injected node.
std::vector<std::vector<real>> run_sweep(const workload& w,
                                         const engine::linearized_snapshot& snap,
                                         const std::vector<real>& freqs,
                                         const std::vector<engine::sweep_engine::injection>& inj,
                                         const engine::solver_tuning& tuning)
{
    engine::sweep_engine_options eopt;
    eopt.threads = 1;
    eopt.tuning = tuning;
    std::vector<std::vector<real>> mag(inj.size(), std::vector<real>(freqs.size(), 0.0));
    engine::sweep_engine(eopt).run_injections(
        snap, freqs, inj,
        [&mag, &inj](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
            mag[ri][fi] = std::abs(sol[inj[ri].index]);
        });
    return mag;
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

/// Time per frequency point of each solver configuration, serial, on a
/// 40-points-per-decade grid.
void print_sweep_ablation(const char* title, std::size_t nprobes,
                          const std::vector<std::size_t>& sizes, int repeats)
{
    std::puts("==============================================================================");
    std::printf("%s\n", title);
    std::puts("      amdx_scalar = column path + scalar kernel (the baseline)");
    std::puts("==============================================================================");
    std::puts("kind     unknowns  mode            ms/freq   speedup   max err");
    std::puts("------------------------------------------------------------------------------");

    struct sweep_mode {
        const char* name;
        bool simd;
        bool supernodal;
    };
    const sweep_mode modes[] = {
        {"amdx_scalar", false, false},
        {"amdx_sn_simd", true, true},
    };
    const std::vector<real> freqs = numeric::log_grid(1e4, 1e7, 40);

    for (const std::string kind : {"ladder", "rcmesh"}) {
        for (const std::size_t size : sizes) {
            workload w(kind, size);
            engine::snapshot_options sopt;
            sopt.gshunt = 1e-9;
            sopt.zero_all_sources = true;
            const engine::linearized_snapshot snap(w.net.ckt, w.op, sopt);

            // Unit-current probes spread evenly over the non-forced nodes
            // (the stability sweeps' stimulus shape, bounded so the
            // per-frequency batch cost stays comparable across sizes).
            const std::vector<bool> forced = w.net.ckt.source_forced_nodes();
            std::vector<engine::sweep_engine::injection> inj;
            const std::size_t nodes = w.net.ckt.node_count();
            const std::size_t stride = std::max<std::size_t>(1, nodes / (nprobes + 1));
            for (std::size_t k = 0; k < nodes && inj.size() < nprobes; k += stride)
                if (!forced[k])
                    inj.push_back({k, cplx{1.0, 0.0}});

            std::vector<std::vector<real>> baseline;
            double base_ms = 0.0;
            // Above ~4k unknowns a single pass is already seconds long and
            // far above timer noise; best-of-N only matters for the small
            // fast cases.
            const int reps = size > 4000 ? 1 : repeats;
            for (const sweep_mode& m : modes) {
                engine::solver_tuning tuning;
                tuning.simd = m.simd;
                tuning.supernodal = m.supernodal;
                std::vector<std::vector<real>> mag;
                double ms = 1e300;
                for (int rep = 0; rep < reps; ++rep)
                    ms = std::min(ms, time_ms([&] {
                        mag = run_sweep(w, snap, freqs, inj, tuning);
                    }));
                const double per_freq = ms / static_cast<double>(freqs.size());
                if (baseline.empty()) {
                    baseline = mag;
                    base_ms = ms;
                }
                const double err = max_rel_err(baseline, mag);
                std::printf("%-8s %8zu  %-14s %8.4f   %6.2fx   %.2g\n", kind.c_str(),
                            snap.size(), m.name, per_freq, base_ms / ms, err);
                results().push_back({"scaling_sweep", kind, snap.size(), m.name,
                                     static_cast<long long>(inj.size()), -1, per_freq, err});
            }
        }
    }
    std::puts("");
}

} // namespace

int main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const char* title24 = "A5b — batched sweep, ms per frequency point (serial, 24 probes, "
                          "40 ppd)";
    const char* title1 = "A5c — single-probe sweep, ms per frequency point (serial, 1 probe, "
                         "40 ppd)";
    if (quick) {
        // CI smoke: one ~2k-unknown point per kind, single timing pass
        // (the refactor rows: best of 3), plus the 8k point the
        // supernodal perf guard reads.
        print_fill_table({2048});
        print_phase_breakdown({2048, 8192}, 1);
        print_sweep_ablation(title24, 24, {2048, 8192}, 1);
        print_sweep_ablation(title1, 1, {2048}, 1);
    } else {
        print_fill_table({512, 2048, 8192});
        print_phase_breakdown({512, 2048, 8192}, 3);
        print_sweep_ablation(title24, 24, {512, 2048, 8192}, 3);
        print_sweep_ablation(title1, 1, {512, 2048, 8192}, 3);
    }
    emit_json();
    return 0;
}
