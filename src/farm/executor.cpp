#include "farm/executor.h"

#include <cstdio>
#include <utility>

#include "common/error.h"
#include "engine/sweep_engine.h"
#include "farm/json_convert.h"
#include "spice/units.h"

namespace acstab::farm {

namespace {

    [[nodiscard]] const char* status_name(core::point_status s)
    {
        switch (s) {
        case core::point_status::ok: return "ok";
        case core::point_status::dc_failed: return "dc_failed";
        case core::point_status::analysis_failed: return "failed";
        case core::point_status::quarantined: return "quarantined";
        }
        return "failed";
    }

    [[nodiscard]] core::point_status status_from_name(const std::string& s)
    {
        if (s == "ok")
            return core::point_status::ok;
        if (s == "dc_failed")
            return core::point_status::dc_failed;
        if (s == "failed")
            return core::point_status::analysis_failed;
        if (s == "quarantined")
            return core::point_status::quarantined;
        throw analysis_error("farm: unknown record status '" + s + "'");
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

    [[nodiscard]] impedance_point_summary impedance_from_json(const json_value& obj)
    {
        impedance_point_summary imp;
        imp.stable = obj.at("stable").as_bool();
        imp.encirclements = static_cast<int>(obj.at("encirclements").as_number());
        imp.nyquist_margin = obj.at("nyquist_margin").as_number();
        imp.nyquist_margin_freq_hz = obj.at("nyquist_margin_freq_hz").as_number();
        imp.has_unity_crossing = obj.at("has_unity_crossing").as_bool();
        if (imp.has_unity_crossing)
            imp.phase_margin_deg = obj.at("phase_margin_deg").as_number();
        imp.has_phase_crossing = obj.at("has_phase_crossing").as_bool();
        if (imp.has_phase_crossing)
            imp.gain_margin_db = obj.at("gain_margin_db").as_number();
        imp.freq_hz = reals_from_json(obj.at("freq_hz"));
        imp.lm_re = reals_from_json(obj.at("lm_re"));
        imp.lm_im = reals_from_json(obj.at("lm_im"));
        return imp;
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

    [[nodiscard]] transient_point_summary transient_from_json(const json_value& obj)
    {
        transient_point_summary tr;
        tr.stable = obj.at("stable").as_bool();
        tr.ringing = obj.at("ringing").as_bool();
        tr.overshoot_pct = obj.at("overshoot_pct").as_number();
        tr.ringing_freq_hz = obj.at("ringing_freq_hz").as_number();
        tr.settling_time_s = obj.at("settling_time_s").as_number();
        tr.final_value = obj.at("final_value").as_number();
        tr.zeta = obj.at("zeta").as_number();
        tr.equiv_pm_deg = obj.at("equiv_pm_deg").as_number();
        tr.time_s = reals_from_json(obj.at("time_s"));
        tr.value = reals_from_json(obj.at("value"));
        return tr;
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
    if (rec.status != core::point_status::ok) {
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

point_record point_record_from_json(const json_value& obj)
{
    point_record rec;
    rec.index = obj.at("index").as_index();
    rec.point.index = rec.index;
    if (const json_value* t = obj.find("temp"))
        rec.point.temp_celsius = t->as_number();
    if (const json_value* c = obj.find("corner"))
        rec.point.corner = c->as_string();
    for (const auto& [name, v] : obj.at("overrides").members())
        rec.point.overrides[name] = v.as_number();
    rec.status = status_from_name(obj.at("status").as_string());
    if (rec.status != core::point_status::ok) {
        rec.error = obj.at("error").as_string();
        return rec;
    }
    if (const json_value* imp = obj.find("impedance")) {
        rec.impedance = impedance_from_json(*imp);
        return rec;
    }
    if (const json_value* tr = obj.find("transient")) {
        rec.transient = transient_from_json(*tr);
        return rec;
    }
    rec.has_peak = obj.at("has_peak").as_bool();
    if (rec.has_peak) {
        rec.fn_hz = obj.at("fn_hz").as_number();
        rec.peak = obj.at("peak").as_number();
        rec.zeta = obj.at("zeta").as_number();
        rec.phase_margin_deg = obj.at("phase_margin_deg").as_number();
        rec.overshoot_pct = obj.at("overshoot_pct").as_number();
    }
    rec.freq_hz = reals_from_json(obj.at("freq_hz"));
    rec.magnitude = reals_from_json(obj.at("magnitude"));
    return rec;
}


namespace {

    /// One impedance grid point, serially, every failure recorded.
    [[nodiscard]] point_record run_impedance_point(const campaign_spec& spec,
                                                   const core::circuit_template& tmpl,
                                                   const analysis::impedance_options& opt,
                                                   std::size_t index)
    {
        point_record rec;
        rec.point = spec.grid.point(index);
        rec.index = rec.point.index;
        try {
            spice::circuit c = std::move(tmpl.build(rec.point).ckt);
            const analysis::impedance_result res
                = analysis::analyze_impedance(c, spec.node, opt);
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
            rec.impedance = std::move(imp);
        } catch (const convergence_error& e) {
            rec.status = core::point_status::dc_failed;
            rec.error = e.what();
        } catch (const error& e) {
            rec.status = core::point_status::analysis_failed;
            rec.error = e.what();
        }
        return rec;
    }

    /// One transient grid point, serially, every failure recorded
    /// (convergence failures — DC operating point or a transient Newton
    /// ladder bottoming out — report dc_failed like the other kinds).
    [[nodiscard]] point_record run_transient_point(const campaign_spec& spec,
                                                   const core::circuit_template& tmpl,
                                                   std::size_t index)
    {
        point_record rec;
        rec.point = spec.grid.point(index);
        rec.index = rec.point.index;
        try {
            spice::circuit c = std::move(tmpl.build(rec.point).ckt);
            const core::tran_stability_result res
                = core::measure_tran_stability(c, spec.node, spec.transient_options());
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
            rec.transient = std::move(tr);
        } catch (const convergence_error& e) {
            rec.status = core::point_status::dc_failed;
            rec.error = e.what();
        } catch (const error& e) {
            rec.status = core::point_status::analysis_failed;
            rec.error = e.what();
        }
        return rec;
    }

    /// One stability grid point as a point_record.
    [[nodiscard]] point_record record_from_grid_result(const core::grid_point_result& res)
    {
        point_record rec;
        rec.index = res.point.index;
        rec.point = res.point;
        rec.status = res.status;
        rec.error = res.error;
        if (res.status != core::point_status::ok)
            return rec;
        rec.has_peak = res.node.has_peak;
        if (res.node.has_peak) {
            rec.fn_hz = res.node.dominant.freq_hz;
            rec.peak = res.node.dominant.value;
            rec.zeta = res.node.zeta;
            rec.phase_margin_deg = res.node.phase_margin_est_deg;
            rec.overshoot_pct = res.node.overshoot_est_pct;
        }
        rec.freq_hz = res.node.plot.freq_hz;
        rec.magnitude = res.node.plot.magnitude;
        return rec;
    }

} // namespace

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
    if (spec_.analysis == campaign_analysis::impedance)
        return run_impedance_point(spec_, tmpl_, spec_.impedance_options(1), index);
    if (spec_.analysis == campaign_analysis::transient)
        return run_transient_point(spec_, tmpl_, index);

    const std::vector<core::grid_point_result> results = core::sweep_stability_grid(
        [this](spice::circuit& c, const core::grid_point& pt) {
            c = std::move(tmpl_.build(pt).ckt);
            return spec_.node;
        },
        spec_.grid, index, index + 1, spec_.stability_options(1));
    return record_from_grid_result(results.front());
}

json_value shard_to_json(const campaign_spec& spec, std::size_t shard,
                         std::size_t shard_count, const std::vector<point_record>& records)
{
    const shard_range range = shard_slice(spec.grid.size(), shard, shard_count);
    json_value doc = json_value::object();
    doc.set("schema", json_value::str(shard_schema));
    doc.set("campaign", to_json(spec));
    json_value sh = json_value::object();
    sh.set("index", json_value::number(shard));
    sh.set("count", json_value::number(shard_count));
    sh.set("begin", json_value::number(range.begin));
    sh.set("end", json_value::number(range.end));
    doc.set("shard", std::move(sh));
    json_value recs = json_value::array();
    for (const point_record& rec : records)
        recs.push_back(point_record_to_json(rec));
    doc.set("records", std::move(recs));
    return doc;
}

std::vector<point_record> records_from_json(const json_value& shard_doc)
{
    if (const json_value* schema = shard_doc.find("schema");
        schema == nullptr || schema->as_string() != shard_schema)
        throw analysis_error("farm: not an acstab shard result (bad schema field)");
    std::vector<point_record> records;
    for (const json_value& rec : shard_doc.at("records").items())
        records.push_back(point_record_from_json(rec));
    return records;
}

json_value merge_shards(const campaign_spec& spec, const std::vector<json_value>& shard_docs)
{
    const std::size_t total = spec.grid.size();
    const std::string spec_bytes = to_json(spec).dump();

    // Slot every shard's records by global index, verifying coverage.
    std::vector<const json_value*> slots(total, nullptr);
    for (const json_value& doc : shard_docs) {
        if (const json_value* schema = doc.find("schema");
            schema == nullptr || schema->as_string() != shard_schema)
            throw analysis_error("farm: merge input is not an acstab shard result");
        if (doc.at("campaign").dump() != spec_bytes)
            throw analysis_error("farm: shard was produced by a different campaign plan");
        for (const json_value& rec : doc.at("records").items()) {
            const std::size_t index = rec.at("index").as_index();
            if (index >= total)
                throw analysis_error("farm: record index " + std::to_string(index)
                                     + " outside the grid");
            if (slots[index] != nullptr)
                throw analysis_error("farm: duplicate record for point "
                                     + std::to_string(index));
            slots[index] = &rec;
        }
    }
    std::size_t missing = 0;
    for (const json_value* slot : slots)
        missing += slot == nullptr ? 1 : 0;
    if (missing != 0)
        throw analysis_error("farm: merge is missing " + std::to_string(missing) + " of "
                             + std::to_string(total) + " points");

    // Re-serializing parsed records is byte-stable: numbers round-trip
    // exactly and member order was fixed by the producer.
    json_value report = json_value::object();
    report.set("schema", json_value::str(report_schema));
    report.set("campaign", json_value::parse(spec_bytes));
    report.set("points", json_value::number(total));
    json_value recs = json_value::array();
    for (const json_value* slot : slots)
        recs.push_back(*slot);
    report.set("records", std::move(recs));
    return report;
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
