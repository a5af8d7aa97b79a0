// pbtool: the in-process half of the acstab end-to-end benchmark.
//
//   pbtool host                        host facts (kernel tier, compiler)
//   pbtool ref-stability  CFG OUT      reference stability verdicts by the
//                                      sparse_lu facade, plus the |Z_kk|
//                                      sample check of the engine
//   pbtool ref-impedance  CFG OUT      fixed-grid impedance verdict
//   pbtool trace          CFG OUT      traced replay of one workload
//
// CFG and OUT are JSON files written and read by run.py. The traced
// replay calls the same public functions, in the same order and with the
// same options, as the acstab command the workload runs, with a span
// around each call (span_recorder.h); run.py turns the spans into
// per-layer self times.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/impedance.h"
#include "analysis/pole_zero.h"
#include "common/error.h"
#include "core/analyzer.h"
#include "core/ascii_plot.h"
#include "core/param_grid.h"
#include "core/report.h"
#include "core/second_order.h"
#include "core/stability_plot.h"
#include "core/tran_stability.h"
#include "engine/adaptive_sweep.h"
#include "engine/linearized_snapshot.h"
#include "engine/sweep_engine.h"
#include "farm/campaign.h"
#include "farm/json.h"
#include "farm/orchestrator.h"
#include "farm/shard_store.h"
#include "numeric/amd_order.h"
#include "numeric/sparse_lu.h"
#include "spice/dc_analysis.h"
#include "spice/measure.h"
#include "spice/parser/netlist_parser.h"
#include "span_recorder.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace acstab;
using farm::json_value;
using perfbench::span_recorder;
using perfbench::traced;
using counters = std::map<std::string, double>;

[[nodiscard]] std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw analysis_error("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out.flush())
        throw analysis_error("cannot write '" + path + "'");
}

[[nodiscard]] std::vector<std::string> strings(const json_value& arr)
{
    std::vector<std::string> out;
    for (const json_value& v : arr.items())
        out.push_back(v.as_string());
    return out;
}

/// The stability options `acstab stability` builds from its flags.
[[nodiscard]] core::stability_options stability_opts(const json_value& cfg)
{
    core::stability_options sopt;
    sopt.sweep.fstart = cfg.at("fstart").as_number();
    sopt.sweep.fstop = cfg.at("fstop").as_number();
    sopt.sweep.points_per_decade = cfg.at("ppd").as_index();
    sopt.threads = cfg.at("threads").as_index();
    return sopt;
}

/// Mirrors stability_analyzer::make_node_result.
[[nodiscard]] core::node_stability node_result(const core::stability_options& opt,
                                               std::string name, const std::vector<real>& freqs,
                                               const std::vector<real>& magnitude)
{
    core::node_stability ns;
    ns.node = std::move(name);
    ns.plot = core::compute_stability_plot(freqs, magnitude, opt.plot);
    if (const core::stability_peak* peak = ns.plot.dominant_pole(); peak != nullptr) {
        ns.has_peak = true;
        ns.dominant = *peak;
        if (peak->value < 0.0) {
            ns.zeta = core::zeta_from_performance_index(peak->value);
            ns.phase_margin_est_deg = std::min(core::phase_margin_rule_deg(ns.zeta), 90.0);
            ns.overshoot_est_pct = core::overshoot_percent(ns.zeta);
            ns.is_underdamped = peak->flag == core::peak_flag::normal && ns.zeta < 1.0;
        }
    }
    return ns;
}

[[nodiscard]] spice::dc_result operating_point(spice::circuit& c,
                                               const core::stability_options& opt)
{
    spice::dc_options dc = opt.dc;
    dc.gmin = opt.gmin;
    dc.solver = opt.solver;
    return spice::dc_operating_point(c, dc);
}

[[nodiscard]] engine::snapshot_options injection_snapshot_opts(const core::stability_options& opt)
{
    engine::snapshot_options so;
    so.gmin = opt.gmin;
    so.gshunt = opt.gshunt;
    so.zero_all_sources = true;
    return so;
}

[[nodiscard]] engine::sweep_engine_options engine_opts(const core::stability_options& opt)
{
    engine::sweep_engine_options eopt;
    eopt.threads = opt.threads;
    eopt.solver = opt.solver;
    eopt.tuning = opt.tuning;
    return eopt;
}

[[nodiscard]] std::size_t node_index(spice::circuit& c, const std::string& name)
{
    const auto node = c.find_node(name);
    if (!node || *node < 0)
        throw analysis_error("unknown or ground node '" + name + "'");
    return static_cast<std::size_t>(*node);
}

// ---------------------------------------------------------------- host

int cmd_host()
{
    const char* tier = "scalar";
    if (__builtin_cpu_supports("avx512f"))
        tier = "avx512";
    else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        tier = "avx2";
    json_value out = json_value::object();
    out.set("kernel_tier", json_value::str(tier));
    out.set("avx2", json_value::boolean(__builtin_cpu_supports("avx2")));
    out.set("avx512f", json_value::boolean(__builtin_cpu_supports("avx512f")));
#if defined(__clang__)
    out.set("compiler", json_value::str(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
    out.set("compiler", json_value::str(std::string("gcc ") + __VERSION__));
#else
    out.set("compiler", json_value::str("unknown"));
#endif
    out.set("build_type", json_value::str(PERFBENCH_BUILD_TYPE));
    std::puts(out.dump().c_str());
    return 0;
}

// ------------------------------------------------------- ref-stability

/// Reference stability verdicts at the watched nodes, computed beside the
/// sweep engine rather than through it: the numeric::sparse_lu facade,
/// refactored column by column at every grid frequency (a fresh one-shot
/// factorization wherever a stale pivot hits zero) and solved one
/// right-hand side at a time, where the engine runs supernodal
/// refactorization, batched SIMD solves and its residual guard. Also
/// samples |Z_kk| from the engine's batched all-nodes path (what
/// `stability --all` runs) at a few frequencies and reports its worst
/// relative deviation from fresh one-shot sparse_lu solves.
int cmd_ref_stability(const json_value& cfg, const std::string& out_path)
{
    const core::stability_options sopt = stability_opts(cfg);
    spice::parsed_netlist net = spice::parse_netlist_file(cfg.at("netlist").as_string());
    spice::circuit& c = net.ckt;
    const spice::dc_result op = operating_point(c, sopt);
    c.finalize();
    const engine::linearized_snapshot snap(c, op.solution, injection_snapshot_opts(sopt));
    const std::size_t n = snap.size();

    const std::vector<std::string> watch = strings(cfg.at("nodes"));
    std::vector<std::size_t> watch_idx;
    for (const std::string& name : watch)
        watch_idx.push_back(node_index(c, name));

    numeric::csc_matrix<cplx> y = snap.make_workspace();
    auto driving_point = [&](const numeric::sparse_lu<cplx>& lu,
                             const std::vector<std::size_t>& idx) {
        std::vector<real> zkk(idx.size());
        for (std::size_t j = 0; j < idx.size(); ++j) {
            std::vector<cplx> b(n, cplx{});
            b[idx[j]] = cplx{sopt.stimulus_amps, 0.0};
            zkk[j] = std::abs(lu.solve(b)[idx[j]]) / sopt.stimulus_amps;
        }
        return zkk;
    };
    auto one_shot = [&](real f, const std::vector<std::size_t>& idx) {
        snap.assemble(to_omega(f), y);
        return driving_point(numeric::sparse_lu<cplx>(y), idx);
    };

    const std::vector<real> freqs = sopt.sweep.frequencies();
    std::vector<std::vector<real>> mag(watch.size(), std::vector<real>(freqs.size()));
    numeric::sparse_lu<cplx>::options lo;
    lo.prepare_refactor = true;
    snap.assemble(to_omega(freqs[freqs.size() / 2]), y);
    numeric::sparse_lu<cplx> lu(y, lo);
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        std::vector<real> z;
        snap.assemble(to_omega(freqs[fi]), y);
        try {
            lu.refactor(y);
            z = driving_point(lu, watch_idx);
        } catch (const numeric_error&) {
            z = one_shot(freqs[fi], watch_idx);
        }
        for (std::size_t j = 0; j < watch.size(); ++j)
            mag[j][fi] = z[j];
    }

    json_value nodes = json_value::object();
    for (std::size_t j = 0; j < watch.size(); ++j) {
        const core::node_stability ns = node_result(sopt, watch[j], freqs, mag[j]);
        json_value v = json_value::object();
        v.set("has_peak", json_value::boolean(ns.has_peak));
        v.set("fn_hz", json_value::number(ns.has_peak ? ns.dominant.freq_hz : 0.0));
        v.set("zeta", json_value::number(ns.zeta));
        v.set("pm_deg", json_value::number(ns.phase_margin_est_deg));
        nodes.set(watch[j], std::move(v));
    }

    json_value out = json_value::object();
    out.set("nodes", std::move(nodes));
    out.set("grid_points", json_value::number(freqs.size()));

    // |Z_kk| samples: the engine's batched path with one injection per
    // analyzable node (exactly the all-nodes RHS batch), compared at the
    // sampled nodes against one-shot solves.
    const json_value* sample_nodes = cfg.find("sample_nodes");
    if (sample_nodes != nullptr) {
        const std::vector<real> sample_f = [&] {
            std::vector<real> f;
            for (const json_value& v : cfg.at("sample_freqs").items())
                f.push_back(v.as_number());
            return f;
        }();
        std::vector<std::size_t> sidx;
        for (const std::string& name : strings(*sample_nodes))
            sidx.push_back(node_index(c, name));
        const std::vector<bool> forced = c.source_forced_nodes();
        std::vector<engine::sweep_engine::injection> inj;
        std::vector<std::size_t> rhs_of(c.node_count(), 0);
        for (std::size_t k = 0; k < c.node_count(); ++k)
            if (!forced[k]) {
                rhs_of[k] = inj.size();
                inj.push_back({k, cplx{1.0, 0.0}});
            }
        std::vector<std::vector<real>> engine_z(sample_f.size(),
                                                std::vector<real>(sidx.size(), 0.0));
        engine::sweep_engine(engine_opts(sopt))
            .run_injections(snap, sample_f, inj,
                            [&](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                                for (std::size_t j = 0; j < sidx.size(); ++j)
                                    if (rhs_of[sidx[j]] == ri && !forced[sidx[j]])
                                        engine_z[fi][j] = std::abs(sol[sidx[j]]);
                            });
        double worst = 0.0;
        for (std::size_t fi = 0; fi < sample_f.size(); ++fi) {
            const std::vector<real> z = one_shot(sample_f[fi], sidx);
            for (std::size_t j = 0; j < sidx.size(); ++j)
                worst = std::max(worst, std::abs(engine_z[fi][j] - z[j]) / z[j]);
        }
        out.set("zkk_max_rel_err", json_value::number(worst));
        out.set("zkk_samples", json_value::number(sample_f.size() * sidx.size()));
    }
    write_file(out_path, out.dump() + "\n");
    return 0;
}

// ------------------------------------------------------- ref-impedance

/// Reference impedance verdict on the fixed grid: no adaptive sweep, no
/// AAA model, so it shares nothing with the workload's --adaptive path
/// beyond the partition and the per-side snapshots.
int cmd_ref_impedance(const json_value& cfg, const std::string& out_path)
{
    spice::parsed_netlist net = spice::parse_netlist_file(cfg.at("netlist").as_string());
    analysis::impedance_options iopt;
    iopt.fstart = cfg.at("fstart").as_number();
    iopt.fstop = cfg.at("fstop").as_number();
    iopt.points_per_decade = cfg.at("ppd").as_index();
    const analysis::impedance_result res
        = analysis::analyze_impedance(net.ckt, cfg.at("node").as_string(), iopt);
    json_value out = json_value::object();
    out.set("encirclements", json_value::number(static_cast<real>(res.encirclements)));
    out.set("stable", json_value::boolean(res.stable));
    write_file(out_path, out.dump() + "\n");
    return 0;
}

// --------------------------------------------------------------- trace

struct replay {
    span_recorder rec;
    counters count;
    std::vector<std::string> outputs; ///< the command's text
};

/// What a traced sweep leaves behind: the grid, magnitudes [rhs][freq],
/// and the snapshot and symbolic factorization the numeric split reuses.
struct sweep_out {
    std::vector<real> freqs;
    std::vector<std::vector<real>> magnitude;
    std::unique_ptr<engine::linearized_snapshot> snap;
    std::shared_ptr<const numeric::symbolic_lu<cplx>> sym;
};

/// dc -> linearize -> symbolic -> fixed-grid sweep for the injections
/// `inj` of a parsed circuit: stability_analyzer's single-node and
/// all-nodes paths with a span around each layer call.
[[nodiscard]] sweep_out traced_sweep(replay& r, spice::circuit& c,
                                     const core::stability_options& sopt,
                                     const std::vector<engine::sweep_engine::injection>& inj,
                                     bool finalize)
{
    const spice::dc_result op
        = traced(r.rec, "spice.dc", [&] { return operating_point(c, sopt); });
    r.count["spice.dc_newton_iters"] += op.iterations;
    if (finalize)
        c.finalize();
    sweep_out out;
    out.snap = traced(r.rec, "engine.linearize", [&] {
        return std::make_unique<engine::linearized_snapshot>(c, op.solution,
                                                             injection_snapshot_opts(sopt));
    });
    const engine::linearized_snapshot& snap = *out.snap;
    r.count["engine.snapshot_nnz"] = static_cast<double>(snap.nnz());

    out.freqs = sopt.sweep.frequencies();
    out.sym = traced(r.rec, "numeric.symbolic", [&] {
        return snap.shared_symbolic(to_omega(out.freqs[out.freqs.size() / 2]),
                                    sopt.tuning.ordering);
    });
    r.count["numeric.lu_nnz"] = static_cast<double>(out.sym->lower_nnz() + out.sym->upper_nnz());
    r.count["numeric.supernodes"] = static_cast<double>(out.sym->supernodes().count());

    out.magnitude.assign(inj.size(), std::vector<real>(out.freqs.size(), 0.0));
    traced(r.rec, "engine.sweep", [&] {
        engine::sweep_engine(engine_opts(sopt))
            .run_injections(snap, out.freqs, inj,
                            [&](std::size_t fi, std::size_t ri, std::span<const cplx> sol) {
                                out.magnitude[ri][fi] = std::abs(sol[inj[ri].index])
                                    / std::abs(inj[ri].value);
                            });
    });
    r.count["engine.factorizations"] += static_cast<double>(out.freqs.size());
    r.count["engine.rhs_solves"] += static_cast<double>(out.freqs.size() * inj.size());
    return out;
}

/// The refactor/solve split: numeric_lu driven directly on a sweep's
/// snapshot at a spread of its grid frequencies, configured like the
/// engine's workers. Recorded under its own root, after the command's
/// root has closed, so it never counts toward it.
void numeric_split(replay& r, const sweep_out& sw, const core::stability_options& sopt,
                   const std::vector<engine::sweep_engine::injection>& inj, int request)
{
    const span_recorder::scope root(r.rec, "numeric.split", request);
    const engine::linearized_snapshot& snap = *sw.snap;
    numeric::csc_matrix<cplx> ws = snap.make_workspace();
    snap.assemble(to_omega(sw.freqs[sw.freqs.size() / 2]), ws);
    traced(r.rec, "numeric.order", [&] {
        return numeric::approx_minimum_degree_order(ws.cols(), ws.col_ptr(), ws.row_idx()).size();
    });
    numeric::numeric_lu<cplx> num(sw.sym);
    num.set_batch_kernel(sopt.tuning.simd ? numeric::batch_kernel::simd
                                          : numeric::batch_kernel::scalar);
    num.set_supernodal(sopt.tuning.supernodal);
    const std::size_t nrhs = std::min<std::size_t>(32, inj.size());
    const std::size_t n = snap.size();
    std::vector<cplx> b(nrhs * n, cplx{});
    std::vector<const cplx*> cols(nrhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
        b[j * n + inj[j].index] = inj[j].value;
        cols[j] = b.data() + j * n;
    }
    std::vector<cplx> x(nrhs * n);
    const std::size_t nf = sw.freqs.size();
    const std::size_t samples = std::min<std::size_t>(8, nf);
    for (std::size_t s = 0; s < samples; ++s) {
        const std::size_t fi = samples > 1 ? s * (nf - 1) / (samples - 1) : 0;
        snap.assemble(to_omega(sw.freqs[fi]), ws);
        try {
            traced(r.rec, "numeric.refactor", [&] { num.refactor(ws); });
        } catch (const numeric_error&) {
            continue; // a stale pivot hit zero here; the engine would re-pivot
        }
        traced(r.rec, "numeric.solve", [&] { num.solve_batch(cols.data(), nrhs, x.data()); });
    }
    r.count["numeric.solve_batch_rhs"] = static_cast<double>(nrhs);
}

/// `acstab stability <netlist> (--node N | --all) --csv`, traced.
void replay_stability(replay& r, const json_value& cfg, int request, bool split)
{
    const core::stability_options sopt = stability_opts(cfg);
    const std::string node = cfg.at("node").as_string();
    const int root = r.rec.open(node.empty() ? "acstab.stability_all" : "acstab.stability_node",
                                request);
    spice::parsed_netlist net = traced(r.rec, "spice.parse", [&] {
        return spice::parse_netlist_file(cfg.at("netlist").as_string());
    });
    spice::circuit& c = net.ckt;

    std::vector<engine::sweep_engine::injection> inj;
    std::vector<bool> forced;
    if (!node.empty()) {
        inj.push_back({node_index(c, node), cplx{sopt.stimulus_amps, 0.0}});
    } else {
        // analyze_all_nodes finalizes before reading the forced set.
        c.finalize();
        forced = c.source_forced_nodes();
        for (std::size_t k = 0; k < c.node_count(); ++k)
            if (!forced[k])
                inj.push_back({k, cplx{1.0, 0.0}});
    }
    const sweep_out sw = traced_sweep(r, c, sopt, inj, node.empty());

    std::vector<core::node_stability> results = traced(r.rec, "core.plot", [&] {
        std::vector<core::node_stability> v;
        for (std::size_t ri = 0; ri < inj.size(); ++ri)
            v.push_back(node_result(sopt, c.node_name(static_cast<spice::node_id>(inj[ri].index)),
                                    sw.freqs, sw.magnitude[ri]));
        return v;
    });

    std::string text = traced(r.rec, "core.report", [&] {
        if (!node.empty())
            return core::format_node_summary(results.front());
        core::stability_report rep;
        rep.nodes = std::move(results);
        for (std::size_t k = 0; k < c.node_count(); ++k)
            if (forced[k])
                rep.skipped_nodes.push_back(c.node_name(static_cast<spice::node_id>(k)));
        std::sort(rep.nodes.begin(), rep.nodes.end(),
                  [](const core::node_stability& a, const core::node_stability& b) {
                      if (a.has_peak != b.has_peak)
                          return a.has_peak;
                      if (!a.has_peak)
                          return a.node < b.node;
                      if (a.dominant.freq_hz != b.dominant.freq_hz)
                          return a.dominant.freq_hz < b.dominant.freq_hz;
                      return a.node < b.node;
                  });
        rep.loops = core::group_loops(rep.nodes, sopt.group_rel_tol);
        r.count["core.loops_found"] = static_cast<double>(rep.loops.size());
        return core::format_csv(rep);
    });
    r.rec.close(root);
    r.outputs.push_back(std::move(text));
    if (split)
        numeric_split(r, sw, sopt, inj, request);
}

/// `acstab impedance <netlist> --node N --adaptive`, traced: the
/// impedance criterion, its report, then the CLI's cross-check (stability
/// plot at the same node on the adaptive path, and the pencil poles).
void replay_impedance(replay& r, const json_value& cfg, int request)
{
    const std::string node = cfg.at("node").as_string();
    const span_recorder::scope root(r.rec, "acstab.impedance", request);
    spice::parsed_netlist net = traced(r.rec, "spice.parse", [&] {
        return spice::parse_netlist_file(cfg.at("netlist").as_string());
    });
    spice::circuit& c = net.ckt;

    analysis::impedance_options iopt;
    iopt.fstart = cfg.at("fstart").as_number();
    iopt.fstop = cfg.at("fstop").as_number();
    iopt.points_per_decade = cfg.at("ppd").as_index();
    iopt.threads = cfg.at("threads").as_index();
    iopt.adaptive = true;
    const analysis::impedance_result res = traced(r.rec, "analysis.impedance", [&] {
        return analysis::analyze_impedance(c, node, iopt);
    });
    std::string text = traced(r.rec, "core.report", [&] {
        core::ascii_plot_options po;
        po.title = "minor-loop gain |Z_s/Z_l| [dB] at " + node;
        return core::format_impedance_summary(res)
            + core::ascii_plot(res.freq_hz, spice::db20(res.minor_loop), po);
    });

    core::stability_options sopt = stability_opts(cfg);
    sopt.adaptive = true;
    const spice::dc_result op
        = traced(r.rec, "spice.dc", [&] { return operating_point(c, sopt); });
    r.count["spice.dc_newton_iters"] += op.iterations;
    const engine::linearized_snapshot snap = traced(r.rec, "engine.linearize", [&] {
        return engine::linearized_snapshot(c, op.solution, injection_snapshot_opts(sopt));
    });
    const std::size_t k = node_index(c, node);
    engine::adaptive_sweep_options aopt;
    aopt.fstart = sopt.sweep.fstart;
    aopt.fstop = sopt.sweep.fstop;
    aopt.output_points_per_decade = sopt.sweep.points_per_decade;
    aopt.anchors_per_decade = sopt.anchors_per_decade;
    aopt.fit_tol = sopt.fit_tol;
    aopt.engine = engine_opts(sopt);
    const engine::adaptive_sweep_result ares = traced(r.rec, "engine.adaptive", [&] {
        return engine::adaptive_sweep(aopt).run_injections(
            snap, {{k, cplx{sopt.stimulus_amps, 0.0}}}, {{0, k}});
    });
    r.count["engine.adaptive_factorizations"] = static_cast<double>(ares.factorizations);
    r.count["engine.adaptive_model_order"] = static_cast<double>(ares.model_order);
    const core::node_stability ns = traced(r.rec, "core.plot", [&] {
        std::vector<real> mag(ares.freq_hz.size());
        for (std::size_t i = 0; i < mag.size(); ++i)
            mag[i] = std::abs(ares.values[0][i]) / sopt.stimulus_amps;
        return node_result(sopt, node, ares.freq_hz, mag);
    });
    text += traced(r.rec, "core.report", [&] { return core::format_node_summary(ns); });

    const std::vector<analysis::pole> poles = traced(r.rec, "analysis.poles", [&] {
        return analysis::circuit_poles(c, op.solution);
    });
    r.count["analysis.poles_found"] = static_cast<double>(poles.size());
    bool poles_stable = true;
    for (const analysis::pole& p : poles)
        if (p.s.real() > 1e-6 * std::abs(p.s))
            poles_stable = false;
    text += traced(r.rec, "core.report", [&] {
        return core::format_impedance_crosscheck(res, poles_stable, "pencil pole analysis");
    });
    r.outputs.push_back(std::move(text));
}

[[nodiscard]] std::vector<std::string> shard_streams(const std::string& workdir)
{
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(workdir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("worker-", 0) == 0 && e.path().extension() == ".jsonl")
            out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// One served campaign request, replayed without the daemon: the
/// orchestrator run (worker processes of the real tool binary), a
/// re-merge of its shard streams, and every grid point re-run in process
/// with the per-point layer calls split out.
void replay_campaign(replay& r, const json_value& cfg, const json_value& plan_cfg, int request,
                     const std::string& workdir)
{
    const std::string plan_path = plan_cfg.at("plan").as_string();
    const farm::campaign_spec spec
        = farm::campaign_from_json(json_value::parse(read_file(plan_path)));
    const std::string reference = read_file(plan_cfg.at("reference").as_string());
    const std::size_t workers = cfg.at("workers").as_index();

    std::filesystem::remove_all(workdir);
    std::filesystem::create_directories(workdir);
    farm::exec_options eopt;
    eopt.workers = workers;
    eopt.workdir = workdir + "/work";
    eopt.out = workdir + "/report.json";
    eopt.plan_path = plan_path;
    eopt.tool_path = cfg.at("tool").as_string();
    eopt.verbose = false;
    farm::exec_summary sum;
    {
        const span_recorder::scope root(r.rec, "farm.request", request);
        sum = traced(r.rec, "farm.exec", [&] { return farm::exec_campaign(spec, eopt); });
    }
    r.count["farm.quarantined"] += static_cast<double>(sum.quarantined.size());
    {
        std::istringstream journal(read_file(eopt.workdir + "/journal.jsonl"));
        for (std::string line; std::getline(journal, line);)
            if (line.find("\"ev\":\"fail\"") != std::string::npos)
                r.count["farm.retries"] += 1.0;
    }
    const bool exec_ok = read_file(eopt.out) == reference;

    const std::string remerged = workdir + "/remerged.json";
    {
        const span_recorder::scope root(r.rec, "farm.merge_replay", request);
        traced(r.rec, "farm.merge", [&] {
            return farm::merge_shard_streams(spec, shard_streams(eopt.workdir), {}, remerged);
        });
    }
    const bool merge_ok = read_file(remerged) == reference;
    r.outputs.push_back(exec_ok && merge_ok ? "report-identical" : "report-differs");

    // Per-point replay: the same calls a farm worker makes for one point
    // (circuit_template::build, then the campaign's analysis), serially.
    const core::circuit_template tmpl{spec.netlist, ""};
    const span_recorder::scope root(r.rec, "farm.points", request);
    const std::size_t total = spec.grid.size();
    for (std::size_t i = 0; i < total; ++i) {
        const span_recorder::scope point(r.rec, "farm.point");
        spice::parsed_netlist net
            = traced(r.rec, "spice.parse", [&] { return tmpl.build(spec.grid.point(i)); });
        try {
            if (spec.analysis == farm::campaign_analysis::transient) {
                const core::tran_stability_result res = traced(r.rec, "spice.tran", [&] {
                    return core::measure_tran_stability(net.ckt, spec.node,
                                                        spec.transient_options());
                });
                r.count["spice.tran_solves"] += static_cast<double>(res.solver.solves);
                r.count["spice.tran_symbolic_builds"]
                    += static_cast<double>(res.solver.symbolic_builds);
            } else {
                const core::stability_options sopt = spec.stability_options(1);
                const std::vector<engine::sweep_engine::injection> inj{
                    {node_index(net.ckt, spec.node), cplx{sopt.stimulus_amps, 0.0}}};
                const sweep_out sw = traced_sweep(r, net.ckt, sopt, inj, false);
                traced(r.rec, "core.plot", [&] {
                    return node_result(sopt, spec.node, sw.freqs, sw.magnitude[0]).has_peak;
                });
            }
        } catch (const error&) {
            // Recorded as a failed point by the real executor too; the
            // report comparison above already covers correctness.
        }
    }
}

[[nodiscard]] json_value spans_to_json(const span_recorder& rec)
{
    json_value arr = json_value::array();
    for (const perfbench::span& s : rec.spans()) {
        json_value v = json_value::object();
        v.set("name", json_value::str(s.name));
        v.set("start_ns", json_value::number(static_cast<real>(s.start_ns)));
        v.set("end_ns", json_value::number(static_cast<real>(s.end_ns)));
        v.set("parent", json_value::number(static_cast<real>(s.parent)));
        v.set("request", json_value::number(static_cast<real>(s.request)));
        arr.push_back(std::move(v));
    }
    return arr;
}

/// One traced repetition of the workload; run.py interleaves these with
/// untraced operations. Repetition 0 of the fixed-grid workloads also
/// runs the numeric split; campaign repetitions alternate the plans.
int cmd_trace(const json_value& cfg, const std::string& out_path)
{
    const std::string kind = cfg.at("kind").as_string();
    const int rep = static_cast<int>(cfg.at("rep").as_index());
    replay r;
    if (kind == "stability") {
        replay_stability(r, cfg, rep, rep == 0);
    } else if (kind == "impedance") {
        replay_impedance(r, cfg, rep);
    } else if (kind == "campaign") {
        const std::vector<json_value>& plans = cfg.at("plans").items();
        replay_campaign(r, cfg, plans[static_cast<std::size_t>(rep) % plans.size()], rep,
                        cfg.at("dir").as_string() + "/rep" + std::to_string(rep));
    } else {
        throw analysis_error("trace: unknown workload kind '" + kind + "'");
    }

    json_value out = json_value::object();
    out.set("spans", spans_to_json(r.rec));
    json_value cnt = json_value::object();
    for (const auto& [name, v] : r.count)
        cnt.set(name, json_value::number(v));
    out.set("counters", std::move(cnt));
    json_value outputs = json_value::array();
    for (std::string& text : r.outputs)
        outputs.push_back(json_value::str(std::move(text)));
    out.set("outputs", std::move(outputs));
    write_file(out_path, out.dump() + "\n");
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const std::string mode = argc > 1 ? argv[1] : "";
        if (mode == "host")
            return cmd_host();
        if (argc != 4) {
            std::fputs("usage: pbtool host | (ref-stability|ref-impedance|trace) CFG OUT\n",
                       stderr);
            return 2;
        }
        const json_value cfg = json_value::parse(read_file(argv[2]));
        if (mode == "ref-stability")
            return cmd_ref_stability(cfg, argv[3]);
        if (mode == "ref-impedance")
            return cmd_ref_impedance(cfg, argv[3]);
        if (mode == "trace")
            return cmd_trace(cfg, argv[3]);
        std::fprintf(stderr, "pbtool: unknown mode '%s'\n", mode.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pbtool: %s\n", e.what());
        return 1;
    }
}
