// acstab — the push-button AC-stability analysis tool (paper section 4),
// reimplemented as a command-line program over the library:
//
//   acstab op        <netlist>                         DC operating point
//   acstab ac        <netlist> --node N [sweep opts]   AC magnitude/phase
//   acstab tran      <netlist> --node N --tstop T      transient waveform
//   acstab stability <netlist> [--node N | --all] ...  the paper's method
//   acstab impedance <netlist> --node N [--source e,..] Nyquist-like source/
//                                                      load impedance-ratio
//                                                      criterion at a port
//   acstab pz        <netlist>                         (G,C) pencil poles
//   acstab loopgain  <netlist> --probe V               double-injection probe
//   acstab run       <netlist>                         execute .op/.ac/.tran/
//                                                      .stability cards
//   acstab farm plan|run|merge ...                     corner-farm campaigns
//                                                      (plan once, execute
//                                                      shards anywhere, merge
//                                                      deterministically)
#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/impedance.h"
#include "analysis/loop_gain.h"
#include "analysis/pole_zero.h"
#include "core/analyzer.h"
#include "engine/sweep_channels.h"
#include "core/ascii_plot.h"
#include "core/param_grid.h"
#include "core/report.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/orchestrator.h"
#include "farm/shard_store.h"
#include "serve/server.h"
#include "gen/netlist_gen.h"
#include "numeric/interpolation.h"
#include "spice/ac_analysis.h"
#include "spice/dc_analysis.h"
#include "spice/devices/sources.h"
#include "spice/measure.h"
#include "spice/parser/netlist_parser.h"
#include "spice/tran_analysis.h"
#include "spice/units.h"
#include "tool/options.h"

namespace {

using namespace acstab;
using namespace acstab::tool;

/// The sweep flags, written into an analysis's inherited sweep settings
/// (solver and tuning keep their defaults: no flag sets them).
void set_sweep(const cli_options& opt, engine::sweep_config& cfg)
{
    cfg.threads = opt.threads;
    cfg.adaptive = opt.adaptive;
    cfg.fit_tol = opt.fit_tol;
    cfg.anchors_per_decade = opt.anchors_per_decade;
}

/// --fstart/--fstop -> the band the sparse pole search covers.
[[nodiscard]] analysis::pole_zero_options pole_options(const cli_options& opt)
{
    analysis::pole_zero_options popt;
    popt.fmin_hz = opt.fstart;
    popt.fmax_hz = opt.fstop;
    return popt;
}

/// A warning line when the sparse pole search doubts its own list.
void print_pole_search_gaps(const analysis::pole_search_result& found)
{
    if (!found.complete())
        std::printf("Warning: the sparse pole search may have missed poles in the band "
                    "(%zu unconfirmed estimates, %zu crowded shifts).\n",
                    found.unconfirmed, found.crowded_shifts);
}

int cmd_op(spice::circuit& c, const cli_options&)
{
    const spice::dc_result op = spice::dc_operating_point(c);
    std::printf("operating point (%d Newton iterations%s%s):\n", op.iterations,
                op.used_gmin_stepping ? ", gmin stepping" : "",
                op.used_source_stepping ? ", source stepping" : "");
    for (std::size_t i = 0; i < c.node_count(); ++i)
        std::printf("  V(%-12s) = %12.6g V\n",
                    c.node_name(static_cast<spice::node_id>(i)).c_str(), op.solution[i]);
    return 0;
}

int cmd_ac(spice::circuit& c, const cli_options& opt)
{
    if (opt.node.empty())
        throw analysis_error("ac: --node is required");
    const spice::dc_result op = spice::dc_operating_point(c);
    // ac_sweep returns every unknown on either grid; the node is selected
    // after the sweep.
    const std::vector<real> grid = numeric::log_grid(opt.fstart, opt.fstop, opt.ppd);
    spice::ac_options aopt;
    set_sweep(opt, aopt);
    const spice::ac_result res = spice::ac_sweep(c, grid, op.solution, aopt);
    const std::vector<real>& freqs = res.freq_hz;
    const std::vector<cplx> h = spice::node_response(c, res, opt.node);
    const std::vector<real> mag_db = spice::db20(h);
    const std::vector<real> phase = spice::phase_deg_unwrapped(h);

    if (opt.csv) {
        std::puts("freq_hz,mag_db,phase_deg");
        for (std::size_t i = 0; i < freqs.size(); ++i)
            std::printf("%.8g,%.8g,%.8g\n", freqs[i], mag_db[i], phase[i]);
        return 0;
    }
    core::ascii_plot_options po;
    po.title = "|V(" + opt.node + ")| [dB]";
    std::fputs(core::ascii_plot(freqs, mag_db, po).c_str(), stdout);
    po.title = "phase(V(" + opt.node + ")) [deg]";
    std::fputs(core::ascii_plot(freqs, phase, po).c_str(), stdout);
    return 0;
}

int cmd_tran(spice::circuit& c, const cli_options& opt)
{
    if (opt.node.empty())
        throw analysis_error("tran: --node is required");
    if (!(opt.tstop > 0.0))
        throw analysis_error("tran: --tstop is required");
    spice::tran_options topt;
    topt.tstop = opt.tstop;
    topt.dt = opt.dt;
    const spice::tran_result res = spice::transient(c, topt);
    const std::vector<real> v = spice::node_waveform(c, res, opt.node);
    if (res.diverged)
        std::fprintf(stderr,
                     "tran: the response grew past double range; the waveform ends at "
                     "t = %.6g s\n",
                     res.time.back());
    if (opt.solver_stats)
        std::fprintf(stderr,
                     "solver: %zu solves, %zu symbolic builds, %zu pattern rebuilds, "
                     "%zu guard probes, %zu guard rebuilds\n",
                     res.solver.solves, res.solver.symbolic_builds,
                     res.solver.pattern_rebuilds, res.solver.guard_probes,
                     res.solver.guard_rebuilds);
    if (opt.csv) {
        std::puts("time_s,volts");
        for (std::size_t i = 0; i < res.time.size(); ++i)
            std::printf("%.8g,%.8g\n", res.time[i], v[i]);
        return 0;
    }
    core::ascii_plot_options po;
    po.log_x = false;
    po.title = "V(" + opt.node + ") vs time";
    std::fputs(core::ascii_plot(res.time, v, po).c_str(), stdout);
    return 0;
}

int cmd_stability(spice::circuit& c, const cli_options& opt)
{
    core::stability_options sopt;
    sopt.sweep = {opt.fstart, opt.fstop, opt.ppd};
    set_sweep(opt, sopt);
    core::stability_analyzer an(c, sopt);

    if (!opt.node.empty()) {
        const core::node_stability ns = an.analyze_node(opt.node);
        std::fputs(core::format_node_summary(ns).c_str(), stdout);
        if (!opt.csv) {
            core::ascii_plot_options po;
            po.title = "stability plot P(f) at " + opt.node;
            std::fputs(core::ascii_plot(ns.plot.freq_hz, ns.plot.p, po).c_str(), stdout);
        }
        return 0;
    }
    // Once per process: `run` may execute several `.stability all` cards.
    static bool adaptive_noted = false;
    if (opt.adaptive && !adaptive_noted) {
        std::fputs("acstab: --adaptive applies to single-node sweeps; all-nodes stability "
                   "runs the fixed grid\n",
                   stderr);
        adaptive_noted = true;
    }
    const core::stability_report rep = an.analyze_all_nodes();
    if (opt.csv)
        std::fputs(core::format_csv(rep).c_str(), stdout);
    else
        std::fputs(core::format_all_nodes_report(rep).c_str(), stdout);
    if (opt.annotate)
        std::fputs(core::annotate_circuit(c, rep).c_str(), stdout);
    return 0;
}

int cmd_impedance(spice::circuit& c, const cli_options& opt)
{
    if (opt.node.empty())
        throw analysis_error("impedance: --node is required");
    // The stability cross-check below sweeps the same band: refuse one it
    // would reject before any verdict is printed.
    core::stability_options sopt;
    sopt.sweep = {opt.fstart, opt.fstop, opt.ppd};
    set_sweep(opt, sopt);
    (void)sopt.sweep.frequencies();

    analysis::impedance_options iopt;
    iopt.fstart = opt.fstart;
    iopt.fstop = opt.fstop;
    iopt.points_per_decade = opt.ppd;
    set_sweep(opt, iopt);
    if (!opt.source.empty())
        iopt.source_elements = parse_name_list(opt.source);
    const analysis::impedance_result res = analysis::analyze_impedance(c, opt.node, iopt);

    if (opt.csv) {
        std::puts("freq_hz,zs_mag,zl_mag,lm_mag_db,lm_phase_deg");
        const std::vector<real> db = spice::db20(res.minor_loop);
        const std::vector<real> ph = spice::phase_deg_unwrapped(res.minor_loop);
        for (std::size_t i = 0; i < res.freq_hz.size(); ++i)
            std::printf("%.8g,%.8g,%.8g,%.8g,%.8g\n", res.freq_hz[i],
                        std::abs(res.z_source[i]), std::abs(res.z_load[i]), db[i], ph[i]);
        return 0;
    }

    std::fputs(core::format_impedance_summary(res).c_str(), stdout);
    core::ascii_plot_options po;
    po.title = "minor-loop gain |Z_s/Z_l| [dB] at " + opt.node;
    std::fputs(core::ascii_plot(res.freq_hz, spice::db20(res.minor_loop), po).c_str(),
               stdout);

    // Cross-check: the paper's stability plot at the same node, plus the
    // pencil-pole ground truth, so the two methodologies vet each other.
    core::stability_analyzer an(c, sopt);
    std::fputs(core::format_node_summary(an.analyze_node(opt.node)).c_str(), stdout);

    const analysis::pole_search_result found
        = analysis::search_circuit_poles(c, an.operating_point(), pole_options(opt));
    print_pole_search_gaps(found);
    const bool poles_stable = std::none_of(found.poles.begin(), found.poles.end(),
                                           analysis::is_right_half_plane);
    std::fputs(core::format_impedance_crosscheck(res, poles_stable, "pencil pole analysis")
                   .c_str(),
               stdout);
    return 0;
}

int cmd_pz(spice::circuit& c, const cli_options& opt)
{
    core::stability_analyzer an(c);
    const auto print = [](const std::vector<analysis::pole>& roots) {
        for (const auto& p : roots) {
            if (p.is_complex && p.s.imag() < 0.0)
                continue; // print each conjugate pair once
            std::printf("  s = %12.5g %+12.5gj rad/s   f = %-12s zeta = %.4f%s\n", p.s.real(),
                        p.s.imag(), spice::format_frequency(p.freq_hz).c_str(), p.zeta,
                        p.is_complex ? "  (complex pair)" : "");
        }
    };
    const analysis::pole_search_result found
        = analysis::search_circuit_poles(c, an.operating_point(), pole_options(opt));
    if (found.sparse)
        std::printf("poles in %s .. %s with zeta <= 0.5, plus every right-half-plane pole "
                    "in the band (sparse search, %zu unknowns):\n",
                    spice::format_frequency(opt.fstart).c_str(),
                    spice::format_frequency(opt.fstop).c_str(), c.unknown_count());
    else
        std::puts("finite poles of the linearized circuit:");
    print_pole_search_gaps(found);
    print(found.poles);
    if (!opt.node.empty()) {
        std::printf("\nzeros of the driving-point impedance at node '%s':\n",
                    opt.node.c_str());
        print(analysis::impedance_zeros_at_node(c, an.operating_point(), opt.node));
    }
    return 0;
}

int cmd_loopgain(spice::circuit& c, const cli_options& opt)
{
    if (opt.probe.empty())
        throw analysis_error("loopgain: --probe <vsource> is required");
    const std::vector<real> freqs = numeric::log_grid(opt.fstart, opt.fstop, opt.ppd);
    analysis::loop_gain_options lopt;
    set_sweep(opt, lopt);
    const analysis::loop_gain_result lg
        = analysis::measure_loop_gain(c, opt.probe, freqs, lopt);
    if (opt.csv) {
        std::puts("freq_hz,t_mag_db,t_phase_deg");
        const std::vector<real> db = spice::db20(lg.t);
        const std::vector<real> ph = spice::phase_deg_unwrapped(lg.t);
        for (std::size_t i = 0; i < lg.freq_hz.size(); ++i)
            std::printf("%.8g,%.8g,%.8g\n", lg.freq_hz[i], db[i], ph[i]);
        return 0;
    }
    core::ascii_plot_options po;
    po.title = "loop gain |T| [dB] via probe " + opt.probe;
    std::fputs(core::ascii_plot(lg.freq_hz, spice::db20(lg.t), po).c_str(), stdout);
    if (lg.margins.has_unity_crossing) {
        std::printf("\n0 dB crossover : %s\n",
                    spice::format_frequency(lg.margins.unity_freq_hz).c_str());
        std::printf("phase margin   : %.1f deg\n", lg.margins.phase_margin_deg);
    } else {
        std::puts("\nloop gain never reaches 0 dB");
    }
    return 0;
}

int cmd_run(spice::parsed_netlist& net, const cli_options& base)
{
    if (net.analyses.empty()) {
        std::puts("netlist contains no analysis cards; try 'acstab stability <netlist> --all'");
        return 1;
    }
    for (const spice::analysis_card& card : net.analyses) {
        cli_options opt = base;
        opt.fstart = card.fstart;
        opt.fstop = card.fstop;
        opt.ppd = card.points_per_decade;
        opt.tstop = card.tstop;
        opt.dt = card.dt;
        switch (card.kind) {
        case spice::analysis_kind::op:
            std::puts("== .op ==");
            cmd_op(net.ckt, opt);
            break;
        case spice::analysis_kind::ac:
            std::puts("== .ac ==");
            opt.node = base.node;
            if (opt.node.empty())
                std::puts("(skipped: pass --node to select the AC output)");
            else
                cmd_ac(net.ckt, opt);
            break;
        case spice::analysis_kind::tran:
            std::puts("== .tran ==");
            opt.node = base.node;
            if (opt.node.empty())
                std::puts("(skipped: pass --node to select the transient output)");
            else
                cmd_tran(net.ckt, opt);
            break;
        case spice::analysis_kind::stability_node:
            std::puts("== .stability (single node) ==");
            opt.node = card.node;
            cmd_stability(net.ckt, opt);
            break;
        case spice::analysis_kind::stability_all:
            std::puts("== .stability all ==");
            opt.node.clear();
            cmd_stability(net.ckt, opt);
            break;
        }
    }
    return 0;
}

/// Write a whole text file atomically: temp file + rename, so consumers
/// never observe a half-written document. Every file the tool emits
/// (plans, shards, reports, generated netlists) goes through here — a
/// crashed or ENOSPC'd writer must not leave a truncated file that
/// poisons a later farm merge.
void write_text_atomic(const std::string& text, const std::string& out_path)
{
    const std::string tmp = out_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            throw analysis_error("cannot write file '" + tmp
                                 + "': " + std::strerror(errno));
        out << text;
        out.flush();
        if (!out) {
            const std::string why = std::strerror(errno);
            std::remove(tmp.c_str());
            throw analysis_error("write to '" + tmp + "' failed: " + why);
        }
    }
    if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
        const std::string why = std::strerror(errno);
        std::remove(tmp.c_str());
        throw analysis_error("cannot finalize '" + out_path + "': " + why
                             + " (rename from temp failed)");
    }
}

/// acstab gen ladder|rcmesh|loopmesh --size N [--out FILE] [band opts]: emit a
/// generated stress netlist (the size-scaling bench corpus) to --out or
/// stdout. Takes no input netlist, so it dispatches before the loader.
int cmd_gen(int argc, char** argv)
{
    const cli_options opt = parse_cli_options(argc - 2, argv + 2,
                                              /*allow_positionals=*/true);
    if (opt.positionals.size() != 1)
        throw analysis_error(
            "gen: usage: acstab gen ladder|rcmesh|loopmesh --size N [--out FILE]");
    gen::gen_options gopt;
    if (opt.size != 0)
        gopt.size = opt.size;
    if (opt.fstart_set)
        gopt.fstart = opt.fstart;
    if (opt.fstop_set)
        gopt.fstop = opt.fstop;
    if (opt.ppd_set)
        gopt.points_per_decade = opt.ppd;
    const std::string text = gen::generate_netlist(opt.positionals[0], gopt);
    if (opt.out.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    write_text_atomic(text, opt.out);
    std::printf("wrote %s netlist (%zu target nodes) -> %s\n", opt.positionals[0].c_str(),
                gopt.size, opt.out.c_str());
    return 0;
}

/// Read a whole file (a farm plan or report).
[[nodiscard]] std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw analysis_error("cannot open file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Emit a farm file's text to --out (atomically) or stdout.
void write_output(const std::string& text, const std::string& out_path)
{
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
        return;
    }
    write_text_atomic(text, out_path);
}

/// Read + parse one farm JSON file with the actionable corrupt-file
/// diagnostic (file name, byte offset, crashed-writer hint).
[[nodiscard]] farm::json_value parse_document_file(const std::string& path,
                                                   farm::farm_document kind)
{
    return farm::parse_farm_document(read_file(path), path, kind);
}

int cmd_farm_plan(const std::string& netlist_path, const cli_options& opt)
{
    spice::parsed_netlist net = spice::parse_netlist_file(netlist_path);

    farm::campaign_spec spec;
    spec.netlist = netlist_path;
    spec.adaptive = opt.adaptive;
    spec.fit_tol = opt.fit_tol;
    spec.anchors_per_decade = opt.anchors_per_decade;
    if (opt.analysis == "impedance")
        spec.analysis = farm::campaign_analysis::impedance;
    else if (opt.analysis == "transient")
        spec.analysis = farm::campaign_analysis::transient;
    else if (!opt.analysis.empty() && opt.analysis != "stability")
        throw analysis_error("farm plan: --analysis must be stability, impedance or "
                             "transient, got '" + opt.analysis + "'");
    if (!opt.source.empty()) {
        if (spec.analysis == farm::campaign_analysis::impedance) {
            spec.source_elements = parse_name_list(opt.source);
        } else if (spec.analysis == farm::campaign_analysis::transient) {
            // Transient campaigns step exactly one source; with no
            // --source, the executor injects a current step at the node.
            const std::vector<std::string> names = parse_name_list(opt.source);
            if (names.size() != 1)
                throw analysis_error("farm plan: transient campaigns step one source, "
                                     "got " + std::to_string(names.size()));
            spec.tran_source = names.front();
        } else {
            throw analysis_error("farm plan: --source only applies to "
                                 "--analysis impedance or transient campaigns");
        }
    }

    // Node and band default from the netlist's .stability card (if any);
    // explicit flags win.
    spec.node = opt.node;
    spec.fstart = opt.fstart;
    spec.fstop = opt.fstop;
    spec.points_per_decade = opt.ppd;
    for (const spice::analysis_card& card : net.analyses) {
        if (card.kind != spice::analysis_kind::stability_node
            && card.kind != spice::analysis_kind::stability_all)
            continue;
        if (spec.node.empty() && card.kind == spice::analysis_kind::stability_node)
            spec.node = card.node;
        if (!opt.fstart_set)
            spec.fstart = card.fstart;
        if (!opt.fstop_set)
            spec.fstop = card.fstop;
        if (!opt.ppd_set)
            spec.points_per_decade = card.points_per_decade;
        break;
    }
    if (spec.node.empty())
        throw analysis_error("farm plan: no watched node (pass --node or add a "
                             "'.stability <node>' card)");
    if (!net.ckt.find_node(spec.node))
        throw analysis_error("farm plan: unknown node '" + spec.node + "'");
    if (spec.analysis == farm::campaign_analysis::impedance) {
        // Fail ambiguous partitions at plan time, on the nominal circuit,
        // instead of at every grid point of every shard.
        (void)analysis::partition_at_node(net.ckt, spec.node, spec.source_elements);
    }
    if (spec.analysis == farm::campaign_analysis::transient) {
        // Time window: explicit flags win, the netlist's .tran card is the
        // fallback — same precedence as the stability band above.
        spec.tran_step = opt.step;
        spec.tran_tstop = opt.tstop;
        spec.tran_dt = opt.dt;
        for (const spice::analysis_card& card : net.analyses) {
            if (card.kind != spice::analysis_kind::tran)
                continue;
            if (!(spec.tran_tstop > 0.0))
                spec.tran_tstop = card.tstop;
            if (!(spec.tran_dt > 0.0))
                spec.tran_dt = card.dt;
            break;
        }
        if (!(spec.tran_tstop > 0.0))
            throw analysis_error("farm plan: transient campaigns need a time window "
                                 "(pass --tstop or add a '.tran <dt> <tstop>' card)");
        if (!spec.tran_source.empty()) {
            // Fail a bad source name at plan time, on the nominal circuit.
            spice::device* dev = net.ckt.find_device(spec.tran_source);
            if (dev == nullptr)
                throw analysis_error("farm plan: unknown source element '"
                                     + spec.tran_source + "'");
            if (dynamic_cast<spice::vsource*>(dev) == nullptr
                && dynamic_cast<spice::isource*>(dev) == nullptr)
                throw analysis_error("farm plan: '" + spec.tran_source
                                     + "' is not a voltage or current source");
        }
    }
    farm::check_sweep(spec);

    // Grid: netlist .temp/.corner campaign cards seed the axes; explicit
    // flags replace them axis by axis. --param axes are flag-only.
    spec.grid = core::grid_from_netlist_cards(net);
    if (!opt.temps.empty())
        spec.grid.temps = parse_value_list(opt.temps);
    if (!opt.corners.empty()) {
        spec.grid.corners.clear();
        for (const std::string& text : opt.corners)
            spec.grid.corners.push_back(parse_corner_spec(text));
    }
    for (const std::string& text : opt.params)
        spec.grid.axes.push_back(parse_param_axis(text));

    // A typo'd override name would be a silent no-op at every grid point
    // (the parser seeds it, nothing reads it): since the nominal parse
    // above succeeded, every parameter the netlist references is in
    // net.parameters, so any override name absent from that table can
    // never take effect — reject it at plan time.
    const auto check_param = [&net](const std::string& name, const std::string& where) {
        std::string key = name;
        for (char& ch : key)
            ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
        if (net.parameters.find(key) == net.parameters.end())
            throw analysis_error("farm plan: " + where + " overrides parameter '" + name
                                 + "', which the netlist never uses (typo?)");
    };
    for (const core::corner_def& corner : spec.grid.corners)
        for (const auto& [name, v] : corner.overrides)
            check_param(name, "corner '" + corner.name + "'");
    for (const core::param_axis& axis : spec.grid.axes)
        check_param(axis.name, "axis '" + axis.name + "'");

    const std::size_t points = spec.grid.size(); // validates the axes
    write_output(farm::to_json(spec).dump() + "\n", opt.out);
    if (!opt.out.empty())
        std::printf("planned %zu-point campaign on %s (node %s) -> %s\n", points,
                    netlist_path.c_str(), spec.node.c_str(), opt.out.c_str());
    return 0;
}

int cmd_farm_run(const std::string& plan_path, const cli_options& opt)
{
    const farm::campaign_spec spec
        = farm::campaign_from_json(parse_document_file(plan_path, farm::farm_document::plan));
    shard_spec sh;
    if (!opt.shard.empty())
        sh = parse_shard_spec(opt.shard);
    const std::vector<farm::point_record> records
        = farm::run_shard(spec, sh.index, sh.count, opt.threads);
    // The shard stream a `farm exec` worker writes, written whole: --out
    // is replaced atomically, so a re-run never appends to an old shard.
    std::string text = farm::shard_stream_header(spec, sh.index);
    for (const farm::point_record& rec : records)
        text += farm::point_record_to_json(rec).dump() + "\n";
    write_output(text, opt.out);
    if (!opt.out.empty())
        std::printf("ran shard %zu/%zu: %zu points -> %s\n", sh.index + 1, sh.count,
                    records.size(), opt.out.c_str());
    return 0;
}

int cmd_farm_merge(const std::string& plan_path, const cli_options& opt)
{
    if (opt.positionals.empty())
        throw analysis_error("farm merge: pass at least one shard stream");
    const farm::campaign_spec spec
        = farm::campaign_from_json(parse_document_file(plan_path, farm::farm_document::plan));

    // O(1) resident records regardless of campaign size. --table needs
    // the parsed report, so it rides through a temp file when no --out
    // was asked for.
    const std::string out_path = !opt.out.empty()
        ? opt.out
        : (opt.table ? opt.positionals[0] + ".merged.tmp.json" : std::string());
    const farm::stream_merge_result merged
        = farm::merge_shard_streams(spec, opt.positionals, {}, out_path);
    if (opt.table) {
        const farm::json_value report
            = parse_document_file(out_path, farm::farm_document::report);
        if (opt.out.empty())
            std::remove(out_path.c_str());
        std::fputs(farm::format_report(report).c_str(), stdout);
        return 0;
    }
    if (!opt.out.empty())
        std::printf("merged %zu shard stream(s), %zu points -> %s\n", opt.positionals.size(),
                    merged.points, opt.out.c_str());
    return 0;
}

/// SIGINT/SIGTERM flag for `farm exec`: the handler only sets the flag;
/// the orchestrator polls it, stops the workers, flushes the journal and
/// returns, so the process exits through the normal path with the
/// campaign resumable.
volatile std::sig_atomic_t g_farm_interrupt = 0;

extern "C" void farm_interrupt_handler(int)
{
    g_farm_interrupt = 1;
}

int cmd_farm_exec(const std::string& plan_path, const cli_options& opt)
{
    const farm::campaign_spec spec
        = farm::campaign_from_json(parse_document_file(plan_path, farm::farm_document::plan));

    farm::exec_options eopt;
    eopt.workers = opt.workers;
    eopt.workdir = opt.dir.empty() ? plan_path + ".work" : opt.dir;
    eopt.out = opt.out.empty() ? plan_path + ".report.json" : opt.out;
    eopt.plan_path = plan_path;
    eopt.resume = opt.resume;
    eopt.point_timeout_s = opt.point_timeout;
    eopt.max_attempts = opt.retries;
    eopt.verbose = !opt.quiet;
    eopt.interrupt = &g_farm_interrupt;

    // No SA_RESTART: the signal must interrupt the orchestrator's poll()
    // so the flag is noticed immediately.
    struct sigaction sa {};
    sa.sa_handler = farm_interrupt_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    const farm::exec_summary sum = farm::exec_campaign(spec, eopt);
    if (sum.interrupted) {
        std::fprintf(stderr,
                     "farm exec: interrupted; %zu/%zu points finished; resume with: "
                     "acstab farm exec %s --dir %s --out %s --resume\n",
                     sum.completed, sum.total, plan_path.c_str(), eopt.workdir.c_str(),
                     eopt.out.c_str());
        return 130;
    }
    std::printf("farm exec: %zu/%zu points ok -> %s\n", sum.completed, sum.total,
                eopt.out.c_str());
    if (!sum.quarantined.empty()) {
        // Quarantined points are listed explicitly (they are also in the
        // report as status "quarantined" records) and flagged with a
        // distinct exit code so farm drivers can tell "done" from "done
        // with holes".
        std::printf("farm exec: %zu point(s) quarantined:\n", sum.quarantined.size());
        for (const auto& [idx, err] : sum.quarantined)
            std::printf("  point %zu: %s\n", idx, err.c_str());
        std::printf("farm exec: re-run with --resume to retry quarantined points\n");
        return 3;
    }
    return 0;
}

/// Internal: the worker half of `farm exec` (spawned by the
/// orchestrator, not meant for direct use).
int cmd_farm_worker(const std::string& plan_path, const cli_options& opt)
{
    if (opt.shard_file.empty())
        throw analysis_error("farm worker: --shard-file is required (internal command "
                             "spawned by 'farm exec')");
    const farm::campaign_spec spec
        = farm::campaign_from_json(parse_document_file(plan_path, farm::farm_document::plan));
    return farm::run_worker(spec, opt.shard_file, opt.worker_id);
}

/// Shutdown ladder for `acstab serve`: first SIGTERM/SIGINT = drain
/// (finish in-flight requests), second = checkpoint them now. The
/// handler only bumps the flag; the server polls it.
std::atomic<int> g_serve_shutdown{0};

extern "C" void serve_shutdown_handler(int)
{
    const int level = g_serve_shutdown.load();
    if (level < 2)
        g_serve_shutdown.store(level + 1);
}

/// acstab serve [--socket PATH | --stdio] [--max-concurrent M] ...: the
/// long-lived campaign service (serve/server.h).
int cmd_serve(int argc, char** argv)
{
    const cli_options opt = parse_cli_options(argc - 2, argv + 2);
    serve::serve_options sopt;
    sopt.socket_path = opt.socket_path;
    sopt.stdio = opt.stdio;
    sopt.max_concurrent = opt.max_concurrent;
    sopt.queue_depth = opt.queue_depth;
    sopt.max_frame_bytes = opt.max_frame;
    sopt.workers = opt.workers;
    sopt.point_timeout_s = opt.point_timeout;
    sopt.max_attempts = opt.retries;
    sopt.root_dir = opt.dir.empty() ? "acstab-serve.work" : opt.dir;
    sopt.drain_grace_s = opt.drain_grace;
    sopt.shutdown = &g_serve_shutdown;
    sopt.verbose = !opt.quiet;

    // No SA_RESTART: the signal must interrupt the server's poll() so
    // the drain starts immediately.
    struct sigaction sa {};
    sa.sa_handler = serve_shutdown_handler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    const serve::serve_summary sum = serve::run_server(sopt);
    std::fprintf(stderr,
                 "serve: %s; %zu accepted, %zu completed, %zu cancelled, %zu failed, "
                 "%zu shed, %zu protocol errors\n",
                 sum.drained ? "drained" : "idle exit", sum.accepted, sum.completed,
                 sum.cancelled, sum.failed, sum.shed, sum.protocol_errors);
    return 0;
}

/// acstab farm plan <netlist> | run <plan.json> | exec <plan.json> |
///        merge <plan.json> <shard>...
int cmd_farm(int argc, char** argv)
{
    if (argc < 4)
        throw analysis_error(
            "farm: usage: acstab farm plan|run|exec|merge <file> [options]");
    const std::string sub = argv[2];
    const std::string file = argv[3];
    const cli_options opt = parse_cli_options(argc - 4, argv + 4,
                                              /*allow_positionals=*/true);
    if (sub == "plan")
        return cmd_farm_plan(file, opt);
    if (sub == "run")
        return cmd_farm_run(file, opt);
    if (sub == "exec")
        return cmd_farm_exec(file, opt);
    if (sub == "worker")
        return cmd_farm_worker(file, opt);
    if (sub == "merge")
        return cmd_farm_merge(file, opt);
    throw analysis_error("farm: unknown subcommand '" + sub
                         + "' (plan|run|exec|merge)");
}

void print_usage()
{
    std::puts("acstab — AC-stability analysis of continuous-time closed-loop circuits");
    std::puts("usage: acstab <command> <netlist> [options]");
    std::puts("       acstab farm plan <netlist> | run <plan.json> | merge <plan.json> <shard>...");
    std::puts("commands:");
    std::puts("  op          DC operating point");
    std::puts("  ac          AC sweep          (--node N)");
    std::puts("  tran        transient         (--node N --tstop T [--dt D]");
    std::puts("              [--solver-stats])");
    std::puts("  stability   stability plots   (--node N | --all)");
    std::puts("  impedance   source/load impedance-ratio (Nyquist-like) criterion at a");
    std::puts("              partition node    (--node N [--source e1,e2,..]); reports");
    std::puts("              encirclements of -1, minor-loop margins, closest approach");
    std::puts("              to -1, and (with --adaptive) closed-loop pole estimates");
    std::puts("              from the AAA fit of Z_s/Z_l, cross-checked against the");
    std::puts("              stability plot and the pencil poles");
    std::printf("  pz          poles of the linearized circuit: all of them below %zu\n",
                analysis::sparse_pole_min_unknowns);
    std::puts("              unknowns, else those in --fstart..--fstop with zeta <= 0.5");
    std::puts("              plus every right-half-plane pole in that band (sparse");
    std::puts("              search; it warns when it may have missed some)");
    std::puts("  loopgain    loop-gain probe   (--probe VSOURCE)");
    std::puts("  run         execute the netlist's .op/.ac/.tran/.stability cards;");
    std::puts("              .ac/.tran cards need --node to pick the plotted output,");
    std::puts("              and sweep options below apply per card");
    std::puts("  gen         emit a generated stress netlist to --out or stdout:");
    std::puts("              gen ladder|rcmesh|loopmesh --size N [--fstart/--fstop/--ppd]");
    std::puts("  farm        corner/TEMP campaigns, shardable across processes:");
    std::puts("              plan  <netlist> --node N [--temps T,..] [--corner n:p=v,..]*");
    std::puts("                    [--param p=v1,v2,..]* [sweep opts] [--out plan.json]");
    std::puts("                    [--analysis stability|impedance [--source e1,..]");
    std::puts("                     |transient [--source ELEM] [--tstop/--dt] [--step A]]");
    std::puts("                    (.temp / .corner / .tran netlist cards seed the grid)");
    std::puts("              run   <plan.json> [--shard k/N] [--threads N] [--out f.jsonl]");
    std::puts("                    (writes the JSONL shard stream 'exec' workers write)");
    std::puts("              exec  <plan.json> [--workers N] [--dir D] [--out f.json]");
    std::puts("                    [--point-timeout S] [--retries N] [--resume] [--quiet]");
    std::puts("                    fault-tolerant multi-process run: work-stealing leases,");
    std::puts("                    per-point timeout, retry + quarantine, crash-safe JSONL");
    std::puts("                    shards, SIGINT-resumable (exit 0 ok, 3 = quarantined");
    std::puts("                    points, 130 = interrupted/resumable)");
    std::puts("              merge <plan.json> <shard.jsonl>... [--out f.json | --table]");
    std::puts("                    (O(1) resident records)");
    std::puts("  serve       long-lived campaign service (JSON-lines protocol; see");
    std::puts("              README \"Serving\"): accepts plans as submit frames, runs");
    std::puts("              them through the fault-tolerant orchestrator, streams");
    std::puts("              per-point records + the merged report back:");
    std::puts("              serve --socket PATH | --stdio  [--dir ROOT] [--workers N]");
    std::puts("                    [--max-concurrent M] [--queue-depth Q] [--max-frame B]");
    std::puts("                    [--point-timeout S] [--retries N] [--drain-grace S]");
    std::puts("                    [--quiet]; SIGTERM drains gracefully (exit 0), a second");
    std::puts("                    SIGTERM checkpoints in-flight requests immediately");
    std::puts("options:");
    std::puts("  --node NAME --all --probe NAME --source ELEM,.. --fstart HZ --fstop HZ");
    std::puts("  --ppd N");
    std::puts("  --tstop S --dt S --threads N (0 = all cores) --csv --annotate");
    std::puts("  --adaptive (rational-fit adaptive grid: factor 5-10x fewer points)");
    std::puts("  --fit-tol TOL --anchors-per-decade N (adaptive sweep tuning)");
    std::puts("  --temps/--corner/--param (campaign grid) --shard k/N --out FILE --table");
}

} // namespace

int main(int argc, char** argv)
{
    try {
        if (argc < 2) {
            print_usage();
            return 1;
        }
        const std::string command = argv[1];
        if (command == "--help" || command == "-h") {
            print_usage();
            return 0;
        }
        if (command == "farm")
            return cmd_farm(argc, argv);
        if (command == "serve")
            return cmd_serve(argc, argv);
        if (command == "gen")
            return cmd_gen(argc, argv);
        // The netlist is the command's one free positional, so flags may
        // come before or after it; a second bare token is still an error
        // (mistyped flag values must not silently become netlist paths).
        const cli_options opt = parse_cli_options(argc - 2, argv + 2,
                                                  /*allow_positionals=*/true);
        if (opt.positionals.empty()) {
            print_usage();
            return 1;
        }
        if (opt.positionals.size() > 1)
            throw analysis_error(command + ": expected one netlist path, got '"
                                 + opt.positionals[0] + "' and '" + opt.positionals[1]
                                 + "'");
        const std::string& netlist_path = opt.positionals[0];

        spice::parsed_netlist net = spice::parse_netlist_file(netlist_path);
        if (!net.title.empty())
            std::printf("netlist: %s\n", net.title.c_str());

        if (command == "op")
            return cmd_op(net.ckt, opt);
        if (command == "ac")
            return cmd_ac(net.ckt, opt);
        if (command == "tran")
            return cmd_tran(net.ckt, opt);
        if (command == "stability")
            return cmd_stability(net.ckt, opt);
        if (command == "impedance")
            return cmd_impedance(net.ckt, opt);
        if (command == "pz")
            return cmd_pz(net.ckt, opt);
        if (command == "loopgain")
            return cmd_loopgain(net.ckt, opt);
        if (command == "run")
            return cmd_run(net, opt);
        print_usage();
        return 1;
    } catch (const acstab::error& e) {
        std::fprintf(stderr, "acstab: %s\n", e.what());
        return 1;
    }
}
