#include "farm/executor.h"

#include <cstdio>
#include <utility>

#include "common/error.h"
#include "engine/sweep_engine.h"
#include "farm/json_convert.h"
#include "spice/units.h"

namespace acstab::farm {

namespace {

    [[nodiscard]] const char* status_name(point_status s)
    {
        switch (s) {
        case point_status::ok: return "ok";
        case point_status::dc_failed: return "dc_failed";
        case point_status::analysis_failed: return "failed";
        case point_status::quarantined: return "quarantined";
        }
        return "failed";
    }

    [[nodiscard]] json_value impedance_to_json(const impedance_point_summary& imp)
    {
        json_value obj = json_value::object();
        obj.set("stable", json_value::boolean(imp.stable));
        // Encirclement counts are signed (negative marks a side with its
        // own RHP poles), so they ride as plain numbers, not indices.
        obj.set("encirclements", json_value::number(static_cast<real>(imp.encirclements)));
        obj.set("nyquist_margin", json_value::number(imp.nyquist_margin));
        obj.set("nyquist_margin_freq_hz", json_value::number(imp.nyquist_margin_freq_hz));
        obj.set("has_unity_crossing", json_value::boolean(imp.has_unity_crossing));
        if (imp.has_unity_crossing)
            obj.set("phase_margin_deg", json_value::number(imp.phase_margin_deg));
        obj.set("has_phase_crossing", json_value::boolean(imp.has_phase_crossing));
        if (imp.has_phase_crossing)
            obj.set("gain_margin_db", json_value::number(imp.gain_margin_db));
        obj.set("freq_hz", reals_to_json(imp.freq_hz));
        obj.set("lm_re", reals_to_json(imp.lm_re));
        obj.set("lm_im", reals_to_json(imp.lm_im));
        return obj;
    }

    [[nodiscard]] json_value transient_to_json(const transient_point_summary& tr)
    {
        json_value obj = json_value::object();
        obj.set("stable", json_value::boolean(tr.stable));
        obj.set("ringing", json_value::boolean(tr.ringing));
        obj.set("overshoot_pct", json_value::number(tr.overshoot_pct));
        obj.set("ringing_freq_hz", json_value::number(tr.ringing_freq_hz));
        obj.set("settling_time_s", json_value::number(tr.settling_time_s));
        obj.set("final_value", json_value::number(tr.final_value));
        obj.set("zeta", json_value::number(tr.zeta));
        obj.set("equiv_pm_deg", json_value::number(tr.equiv_pm_deg));
        obj.set("time_s", reals_to_json(tr.time_s));
        obj.set("value", reals_to_json(tr.value));
        return obj;
    }

    [[nodiscard]] impedance_point_summary impedance_summary(const analysis::impedance_result& res)
    {
        impedance_point_summary imp;
        imp.stable = res.stable;
        imp.encirclements = res.encirclements;
        imp.nyquist_margin = res.nyquist_margin;
        imp.nyquist_margin_freq_hz = res.nyquist_margin_freq_hz;
        imp.has_unity_crossing = res.margins.has_unity_crossing;
        imp.phase_margin_deg = res.margins.phase_margin_deg;
        imp.has_phase_crossing = res.margins.has_phase_crossing;
        imp.gain_margin_db = res.margins.gain_margin_db;
        imp.freq_hz = res.freq_hz;
        imp.lm_re.resize(res.minor_loop.size());
        imp.lm_im.resize(res.minor_loop.size());
        for (std::size_t k = 0; k < res.minor_loop.size(); ++k) {
            imp.lm_re[k] = res.minor_loop[k].real();
            imp.lm_im[k] = res.minor_loop[k].imag();
        }
        return imp;
    }

    [[nodiscard]] transient_point_summary transient_summary(const core::tran_stability_result& res)
    {
        transient_point_summary tr;
        tr.stable = res.stable;
        tr.ringing = res.ringing;
        tr.overshoot_pct = res.overshoot_pct;
        tr.ringing_freq_hz = res.ringing_freq_hz;
        tr.settling_time_s = res.settling_time_s;
        tr.final_value = res.final_value;
        tr.zeta = res.zeta;
        tr.equiv_pm_deg = res.equiv_pm_deg;
        tr.time_s = res.time;
        tr.value = res.value;
        return tr;
    }

    void set_stability_summary(point_record& rec, const core::node_stability& ns)
    {
        rec.has_peak = ns.has_peak;
        if (ns.has_peak) {
            rec.fn_hz = ns.dominant.freq_hz;
            rec.peak = ns.dominant.value;
            rec.zeta = ns.zeta;
            rec.phase_margin_deg = ns.phase_margin_est_deg;
            rec.overshoot_pct = ns.overshoot_est_pct;
        }
        rec.freq_hz = ns.plot.freq_hz;
        rec.magnitude = ns.plot.magnitude;
    }

} // namespace

json_value point_record_to_json(const point_record& rec)
{
    json_value obj = json_value::object();
    obj.set("index", json_value::number(rec.index));
    if (rec.point.temp_celsius)
        obj.set("temp", json_value::number(*rec.point.temp_celsius));
    if (!rec.point.corner.empty())
        obj.set("corner", json_value::str(rec.point.corner));
    obj.set("overrides", overrides_to_json(rec.point.overrides));
    obj.set("label", json_value::str(rec.point.label()));
    obj.set("status", json_value::str(status_name(rec.status)));
    if (rec.status != point_status::ok) {
        obj.set("error", json_value::str(rec.error));
        return obj;
    }
    if (rec.impedance) {
        obj.set("impedance", impedance_to_json(*rec.impedance));
        return obj;
    }
    if (rec.transient) {
        obj.set("transient", transient_to_json(*rec.transient));
        return obj;
    }
    obj.set("has_peak", json_value::boolean(rec.has_peak));
    if (rec.has_peak) {
        obj.set("fn_hz", json_value::number(rec.fn_hz));
        obj.set("peak", json_value::number(rec.peak));
        obj.set("zeta", json_value::number(rec.zeta));
        obj.set("phase_margin_deg", json_value::number(rec.phase_margin_deg));
        obj.set("overshoot_pct", json_value::number(rec.overshoot_pct));
    }
    obj.set("freq_hz", reals_to_json(rec.freq_hz));
    obj.set("magnitude", reals_to_json(rec.magnitude));
    return obj;
}

std::vector<point_record> run_shard(const campaign_spec& spec, std::size_t shard,
                                    std::size_t shard_count, std::size_t threads)
{
    const point_runner runner(spec);
    const shard_range range = shard_slice(spec.grid.size(), shard, shard_count);
    // Points run concurrently on the shared pool, each analysis serial
    // inside, with records slotted by index.
    std::vector<point_record> records(range.end - range.begin);
    engine::sweep_engine_options eopt;
    eopt.threads = threads;
    engine::sweep_engine(eopt).for_each(records.size(), [&](std::size_t i) {
        records[i] = runner.run(range.begin + i);
    });
    return records;
}

point_runner::point_runner(campaign_spec spec)
    : spec_(std::move(spec)), tmpl_{spec_.netlist, ""}
{
    if (spec_.node.empty())
        throw analysis_error("farm: campaign has no watched node");
    (void)spec_.grid.size(); // validate the axes once, not per point
}

point_record point_runner::run(std::size_t index) const
{
    point_record rec;
    rec.point = spec_.grid.point(index);
    rec.index = rec.point.index;
    // Every failure is recorded, never thrown: a pathological corner (a
    // singular matrix, a non-convergent Newton solve, a parse error from
    // an override) must not kill the other points of a campaign.
    try {
        spice::circuit c = std::move(tmpl_.build(rec.point).ckt);
        switch (spec_.analysis) {
        case campaign_analysis::impedance:
            rec.impedance = impedance_summary(
                analysis::analyze_impedance(c, spec_.node, spec_.impedance_options(1)));
            break;
        case campaign_analysis::transient:
            rec.transient = transient_summary(
                core::measure_tran_stability(c, spec_.node, spec_.transient_options()));
            break;
        case campaign_analysis::stability:
            set_stability_summary(
                rec, core::stability_analyzer(c, spec_.stability_options(1))
                         .analyze_node(spec_.node));
            break;
        }
    } catch (const convergence_error& e) {
        rec.status = point_status::dc_failed;
        rec.error = e.what();
    } catch (const error& e) {
        rec.status = point_status::analysis_failed;
        rec.error = e.what();
    }
    return rec;
}

std::string format_report(const json_value& report)
{
    if (const json_value* schema = report.find("schema");
        schema == nullptr || schema->as_string() != report_schema)
        throw analysis_error("farm: not an acstab farm report (bad schema field)");

    std::string out;
    const json_value& campaign = report.at("campaign");
    const std::string& node = campaign.at("node").as_string();
    const json_value* kind = campaign.find("analysis");
    const bool impedance = kind != nullptr && kind->as_string() == "impedance";
    const bool transient = kind != nullptr && kind->as_string() == "transient";

    if (transient) {
        out += "transient-campaign report, node '" + node + "'\n";
        out += "point  label                                     verdict   overshoot  "
               "equiv PM   settle\n";
        out += "----------------------------------------------------------------------------"
               "-----\n";
        for (const json_value& rec : report.at("records").items()) {
            char line[220];
            const std::size_t index = rec.at("index").as_index();
            const std::string& label = rec.at("label").as_string();
            const std::string& status = rec.at("status").as_string();
            if (status != "ok") {
                std::snprintf(line, sizeof line, "%-6zu %-40.40s  (%s: %.80s)\n", index,
                              label.c_str(), status.c_str(),
                              rec.at("error").as_string().c_str());
            } else {
                const json_value& tr = rec.at("transient");
                std::snprintf(line, sizeof line,
                              "%-6zu %-40.40s  %-8s %7.2f %%  %5.1f deg  %9.3g s\n", index,
                              label.c_str(),
                              tr.at("stable").as_bool() ? "stable" : "UNSTABLE",
                              tr.at("overshoot_pct").as_number(),
                              tr.at("equiv_pm_deg").as_number(),
                              tr.at("settling_time_s").as_number());
            }
            out += line;
        }
        return out;
    }

    if (impedance) {
        out += "impedance-campaign report, partition node '" + node + "'\n";
        out += "point  label                                     verdict   enc   min|1+Lm|   "
               "PM(Lm)\n";
        out += "----------------------------------------------------------------------------"
               "------\n";
        for (const json_value& rec : report.at("records").items()) {
            char line[220];
            const std::size_t index = rec.at("index").as_index();
            const std::string& label = rec.at("label").as_string();
            const std::string& status = rec.at("status").as_string();
            if (status != "ok") {
                std::snprintf(line, sizeof line, "%-6zu %-40.40s  (%s: %.80s)\n", index,
                              label.c_str(), status.c_str(),
                              rec.at("error").as_string().c_str());
            } else {
                const json_value& imp = rec.at("impedance");
                char pm[32];
                if (imp.at("has_unity_crossing").as_bool())
                    std::snprintf(pm, sizeof pm, "%6.1f deg",
                                  imp.at("phase_margin_deg").as_number());
                else
                    std::snprintf(pm, sizeof pm, "%9s", "-");
                std::snprintf(line, sizeof line, "%-6zu %-40.40s  %-8s %4d   %9.4g   %s\n",
                              index, label.c_str(),
                              imp.at("stable").as_bool() ? "stable" : "UNSTABLE",
                              static_cast<int>(imp.at("encirclements").as_number()),
                              imp.at("nyquist_margin").as_number(), pm);
            }
            out += line;
        }
        return out;
    }

    out += "corner-farm campaign report, node '" + node + "'\n";
    out += "point  label                                     fn            zeta     est. PM\n";
    out += "-----------------------------------------------------------------------------\n";
    for (const json_value& rec : report.at("records").items()) {
        char line[220];
        const std::size_t index = rec.at("index").as_index();
        const std::string& label = rec.at("label").as_string();
        const std::string& status = rec.at("status").as_string();
        if (status != "ok") {
            std::snprintf(line, sizeof line, "%-6zu %-40.40s  (%s: %.80s)\n", index,
                          label.c_str(), status.c_str(), rec.at("error").as_string().c_str());
        } else if (!rec.at("has_peak").as_bool()) {
            std::snprintf(line, sizeof line, "%-6zu %-40.40s  (no complex-pole peak)\n",
                          index, label.c_str());
        } else {
            std::snprintf(line, sizeof line, "%-6zu %-40.40s  %-12s %7.3f  %7.1f deg\n",
                          index, label.c_str(),
                          spice::format_frequency(rec.at("fn_hz").as_number()).c_str(),
                          rec.at("zeta").as_number(),
                          rec.at("phase_margin_deg").as_number());
        }
        out += line;
    }
    return out;
}

} // namespace acstab::farm
