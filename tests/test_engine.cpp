// The unified sweep engine must reproduce the direct re-stamp-per-
// frequency path to tight tolerance, serial and threaded, on every
// analysis that now routes through it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <set>

#include "analysis/loop_gain.h"
#include "circuits/opamp.h"
#include "circuits/rlc.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "engine/linearized_snapshot.h"
#include "engine/reference_sweep.h"
#include "engine/sweep_engine.h"
#include "engine/thread_pool.h"
#include "numeric/interpolation.h"
#include "numeric/sparse_lu.h"
#include "spice/ac_analysis.h"
#include "spice/dc_analysis.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"

namespace {

using namespace acstab;

/// Largest mismatch between two full AC solutions, measured per frequency
/// relative to the infinity norm of the solution vector (per-entry
/// relative error is meaningless for entries that are tiny by
/// cancellation).
real max_rel_error(const spice::ac_result& a, const spice::ac_result& b)
{
    EXPECT_EQ(a.solution.size(), b.solution.size());
    real worst = 0.0;
    for (std::size_t f = 0; f < a.solution.size(); ++f) {
        EXPECT_EQ(a.solution[f].size(), b.solution[f].size());
        real norm = 1e-30;
        for (const cplx& v : a.solution[f])
            norm = std::max(norm, std::abs(v));
        for (std::size_t i = 0; i < a.solution[f].size(); ++i)
            worst = std::max(worst, std::abs(a.solution[f][i] - b.solution[f][i]) / norm);
    }
    return worst;
}

spice::circuit make_rlc_circuit()
{
    spice::circuit c;
    const spice::node_id in = c.node("in");
    const spice::node_id m = c.node("m");
    const spice::node_id out = c.node("out");
    c.add<spice::vsource>("vin", in, spice::ground_node, spice::waveform_spec::make_ac(0.0, 1.0));
    c.add<spice::resistor>("r1", in, m, 50.0);
    c.add<spice::inductor>("l1", m, out, 1e-6);
    c.add<spice::capacitor>("c1", out, spice::ground_node, 1e-9);
    return c;
}

TEST(engine_equivalence, ac_sweep_rlc_matches_direct_path)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    const std::vector<real> freqs = numeric::log_space(1e3, 1e9, 240);

    const spice::ac_result direct = engine::reference_ac_sweep(c, freqs, op.solution);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        spice::ac_options opt;
        opt.threads = threads;
        const spice::ac_result via_engine = spice::ac_sweep(c, freqs, op.solution, opt);
        EXPECT_LT(max_rel_error(direct, via_engine), 1e-9) << threads << " threads";
    }
}

TEST(engine_equivalence, ac_sweep_opamp_matches_direct_path)
{
    spice::circuit c;
    (void)circuits::build_opamp_buffer(c);
    const spice::dc_result op = spice::dc_operating_point(c);
    const std::vector<real> freqs = numeric::log_space(1e3, 1e9, 180);

    const spice::ac_result direct = engine::reference_ac_sweep(c, freqs, op.solution);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        spice::ac_options opt;
        opt.threads = threads;
        const spice::ac_result via_engine = spice::ac_sweep(c, freqs, op.solution, opt);
        EXPECT_LT(max_rel_error(direct, via_engine), 1e-7) << threads << " threads";
    }
}

TEST(engine_equivalence, dense_solver_path_matches_sparse)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    const std::vector<real> freqs = numeric::log_space(1e4, 1e8, 40);

    spice::ac_options dense;
    dense.solver = spice::solver_kind::dense;
    const spice::ac_result a = spice::ac_sweep(c, freqs, op.solution, dense);
    const spice::ac_result b = spice::ac_sweep(c, freqs, op.solution);
    EXPECT_LT(max_rel_error(a, b), 1e-9);
}

// The historical algorithm: two full AC runs through probe manipulation
// (voltage injection via the probe's own stimulus, then a temporary
// current injector). The engine's one-pass two-RHS result must match.
TEST(engine_equivalence, loop_gain_matches_two_run_reference)
{
    spice::circuit c;
    const auto nodes = circuits::build_two_pole_loop(c, {});
    const std::vector<real> freqs = numeric::log_space(1e2, 1e8, 120);

    auto* probe = dynamic_cast<spice::vsource*>(c.find_device(nodes.probe));
    ASSERT_NE(probe, nullptr);
    c.finalize();
    const spice::node_id node_x = probe->nodes()[0];
    const spice::node_id node_y = probe->nodes()[1];
    const spice::dc_result op = spice::dc_operating_point(c);

    spice::ac_options ac;
    ac.exclusive_source = probe;
    const spice::waveform_spec saved = probe->spec();
    probe->set_spec(spice::waveform_spec::make_ac(0.0, 1.0));
    const spice::ac_result run_v = engine::reference_ac_sweep(c, freqs, op.solution, ac);
    probe->set_spec(saved);

    auto& inj = c.add<spice::isource>("iinj", spice::ground_node, node_y,
                                      spice::waveform_spec::make_ac(0.0, 1.0));
    spice::ac_options ac_i;
    ac_i.exclusive_source = &inj;
    const spice::ac_result run_i = engine::reference_ac_sweep(c, freqs, op.solution, ac_i);
    c.remove_device("iinj");

    const std::size_t branch = static_cast<std::size_t>(probe->branch());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        analysis::loop_gain_options opt;
        opt.threads = threads;
        const analysis::loop_gain_result lg
            = analysis::measure_loop_gain(c, nodes.probe, freqs, opt);
        for (std::size_t k = 0; k < freqs.size(); ++k) {
            const cplx vx = run_v.solution[k][static_cast<std::size_t>(node_x)];
            const cplx vy = run_v.solution[k][static_cast<std::size_t>(node_y)];
            const cplx tv = -vx / vy;
            const cplx i = run_i.solution[k][branch];
            const cplx ti = -i / (i + cplx{1.0, 0.0});
            const cplx t = (tv * ti - cplx{1.0, 0.0}) / (tv + ti + cplx{2.0, 0.0});
            EXPECT_LT(std::abs(lg.t[k] - t), 1e-9 * std::max(std::abs(t), real{1.0}))
                << "f=" << freqs[k] << " threads=" << threads;
        }
    }
}

TEST(engine_equivalence, all_nodes_report_independent_of_thread_count)
{
    spice::circuit c;
    (void)circuits::build_opamp_buffer(c);
    core::stability_options serial;
    serial.sweep.points_per_decade = 30;
    serial.threads = 1;
    core::stability_analyzer an1(c, serial);
    const core::stability_report rep1 = an1.analyze_all_nodes();

    core::stability_options threaded = serial;
    threaded.threads = 4;
    core::stability_analyzer an4(c, threaded);
    const core::stability_report rep4 = an4.analyze_all_nodes();

    ASSERT_EQ(rep1.nodes.size(), rep4.nodes.size());
    ASSERT_EQ(rep1.skipped_nodes, rep4.skipped_nodes);
    for (std::size_t i = 0; i < rep1.nodes.size(); ++i) {
        EXPECT_EQ(rep1.nodes[i].node, rep4.nodes[i].node);
        EXPECT_EQ(rep1.nodes[i].has_peak, rep4.nodes[i].has_peak);
        if (rep1.nodes[i].has_peak) {
            EXPECT_NEAR(rep1.nodes[i].dominant.freq_hz, rep4.nodes[i].dominant.freq_hz,
                        1e-6 * rep1.nodes[i].dominant.freq_hz);
            EXPECT_NEAR(rep1.nodes[i].zeta, rep4.nodes[i].zeta,
                        1e-6 * std::max(rep1.nodes[i].zeta, real{1e-6}));
        }
    }
}

TEST(engine_equivalence, single_node_mode_matches_all_nodes_entry)
{
    spice::circuit c;
    circuits::add_parallel_rlc_tank(c, "tank", 0.25, 2e6);
    core::stability_options opt;
    opt.sweep.fstart = 1e4;
    opt.sweep.fstop = 1e8;
    core::stability_analyzer an(c, opt);
    const core::node_stability single = an.analyze_node("tank");
    ASSERT_TRUE(single.has_peak);
    EXPECT_NEAR(single.zeta, 0.25, 0.01);
    EXPECT_NEAR(single.dominant.freq_hz, 2e6, 4e4);
}

// --- snapshot internals ----------------------------------------------------

TEST(linearized_snapshot, assembles_exact_y_of_omega)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});

    // Against a fresh direct stamp at an arbitrary frequency.
    const real f = 3.7e6;
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(f), work);

    spice::ac_params p;
    p.omega = to_omega(f);
    spice::system_builder<cplx> b(c.unknown_count());
    for (const auto& dev : c.devices())
        dev->stamp_ac(op.solution, p, b);
    const numeric::csc_matrix<cplx> direct(b.matrix());

    const numeric::dense_matrix<cplx> dw = work.to_dense();
    const numeric::dense_matrix<cplx> dd = direct.to_dense();
    for (std::size_t r = 0; r < dw.rows(); ++r)
        for (std::size_t col = 0; col < dw.cols(); ++col)
            EXPECT_LT(std::abs(dw(r, col) - dd(r, col)),
                      1e-12 * std::max(std::abs(dd(r, col)), real{1.0}));
}

TEST(linearized_snapshot, survives_circuit_edits)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t nnz_before = snap.nnz();
    c.add<spice::resistor>("rlater", c.node("out"), spice::ground_node, 1e6);
    EXPECT_EQ(snap.nnz(), nnz_before); // detached from the circuit
}

TEST(linearized_snapshot, validates_operating_point_size)
{
    spice::circuit c = make_rlc_circuit();
    std::vector<real> bad(2, 0.0);
    EXPECT_THROW((engine::linearized_snapshot{c, bad, {}}), analysis_error);
}

// --- sparse refactorization ------------------------------------------------

TEST(sparse_refactor, matches_fresh_factorization)
{
    // An MNA-like complex system whose values change with omega but whose
    // pattern stays fixed — the engine's exact workload.
    spice::circuit c;
    circuits::build_rc_ladder(c, 24);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e3), work);
    numeric::sparse_lu<cplx>::options lopt;
    lopt.prepare_refactor = true;
    numeric::sparse_lu<cplx> lu(work, lopt);

    std::vector<cplx> rhs(snap.size(), cplx{});
    rhs[3] = cplx{1.0, 0.0};

    for (const real f : {1e4, 1e6, 1e8, 1e2}) {
        snap.assemble(to_omega(f), work);
        lu.refactor(work);
        const std::vector<cplx> x = lu.solve(rhs);
        const numeric::sparse_lu<cplx> fresh(work);
        const std::vector<cplx> y = fresh.solve(rhs);
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_LT(std::abs(x[i] - y[i]), 1e-9 * std::max(std::abs(y[i]), real{1e-12}))
                << "f=" << f;
    }
}

TEST(sparse_refactor, requires_preparation)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 4);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e5), work);
    numeric::sparse_lu<cplx> lu(work); // default options: no refactor prep
    EXPECT_THROW(lu.refactor(work), numeric_error);
}

// --- thread pool -----------------------------------------------------------

TEST(thread_pool, covers_every_index_exactly_once)
{
    engine::thread_pool pool(3);
    constexpr std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, 4, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(thread_pool, propagates_the_first_exception)
{
    engine::thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(64, 3,
                                   [](std::size_t i) {
                                       if (i == 17)
                                           throw analysis_error("boom");
                                   }),
                 analysis_error);
}

TEST(thread_pool, nested_parallel_for_makes_progress)
{
    // Every worker blocks in an outer join while the inner jobs' helper
    // tasks sit in the queue; the waiters must drain them themselves.
    engine::thread_pool pool(2);
    std::atomic<int> total{0};
    pool.parallel_for(4, 4, [&pool, &total](std::size_t) {
        pool.parallel_for(2, 2, [&total](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 8);
}

TEST(thread_pool, serial_when_one_worker_requested)
{
    engine::thread_pool pool(2);
    std::vector<std::size_t> order;
    pool.parallel_for(8, 1, [&order](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i); // max_workers == 1 runs in order on the caller
}

// --- engine input validation ----------------------------------------------

TEST(sweep_engine, validates_inputs)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const engine::sweep_engine eng;
    const auto ignore = [](std::size_t, std::size_t, std::span<const cplx>) {};
    EXPECT_THROW(eng.run(snap, {}, {snap.stimulus_rhs()}, ignore), analysis_error);
    EXPECT_THROW(eng.run(snap, {-1.0}, {snap.stimulus_rhs()}, ignore), analysis_error);
    EXPECT_THROW(eng.run(snap, {1e3}, {std::vector<cplx>(2)}, ignore), analysis_error);
    EXPECT_THROW(eng.run_injections(snap, {1e3}, {{snap.size(), cplx{1.0, 0.0}}}, ignore),
                 analysis_error);
}

TEST(sweep_engine, sparse_injections_match_dense_rhs)
{
    spice::circuit c = make_rlc_circuit();
    const spice::dc_result op = spice::dc_operating_point(c);
    engine::snapshot_options sopt;
    sopt.zero_all_sources = true;
    const engine::linearized_snapshot snap(c, op.solution, sopt);
    const std::vector<real> freqs = numeric::log_space(1e4, 1e8, 30);

    std::vector<std::vector<cplx>> dense_batch;
    std::vector<engine::sweep_engine::injection> injections;
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
        std::vector<cplx> rhs(snap.size(), cplx{});
        rhs[k] = cplx{1.0, 0.0};
        dense_batch.push_back(std::move(rhs));
        injections.push_back({k, cplx{1.0, 0.0}});
    }

    const engine::sweep_engine eng;
    std::vector<std::vector<cplx>> from_dense(freqs.size() * 2);
    eng.run(snap, freqs, dense_batch,
            [&from_dense](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                from_dense[2 * fi + ri].assign(sol.begin(), sol.end());
            });
    std::vector<std::vector<cplx>> from_sparse(freqs.size() * 2);
    eng.run_injections(snap, freqs, injections,
                       [&from_sparse](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                           from_sparse[2 * fi + ri].assign(sol.begin(), sol.end());
                       });
    ASSERT_EQ(from_dense.size(), from_sparse.size());
    for (std::size_t i = 0; i < from_dense.size(); ++i)
        EXPECT_EQ(from_dense[i], from_sparse[i]); // bit-identical
}

} // namespace
