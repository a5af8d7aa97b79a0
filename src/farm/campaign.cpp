#include "farm/campaign.h"

#include "common/error.h"
#include "farm/json_convert.h"
#include "spice/tran_analysis.h"

namespace acstab::farm {

namespace {

    constexpr const char* campaign_schema = "acstab-farm-campaign-v1";

    /// Sweep keys of plans written before solver tuning left the plan
    /// format. Their settings never changed answers beyond rounding, but
    /// a plan that pins one is refused by name rather than silently run
    /// on the default solver.
    constexpr const char* retired_sweep_keys[]
        = {"order", "simd", "warm", "supernodal", "warm_pipeline"};

} // namespace

core::stability_options campaign_spec::stability_options(std::size_t threads) const
{
    core::stability_options opt;
    opt.sweep.fstart = fstart;
    opt.sweep.fstop = fstop;
    opt.sweep.points_per_decade = points_per_decade;
    opt.adaptive = adaptive;
    opt.fit_tol = fit_tol;
    opt.anchors_per_decade = anchors_per_decade;
    opt.threads = threads;
    return opt;
}

analysis::impedance_options campaign_spec::impedance_options(std::size_t threads) const
{
    analysis::impedance_options opt;
    opt.fstart = fstart;
    opt.fstop = fstop;
    opt.points_per_decade = points_per_decade;
    opt.adaptive = adaptive;
    opt.fit_tol = fit_tol;
    opt.anchors_per_decade = anchors_per_decade;
    opt.source_elements = source_elements;
    opt.threads = threads;
    return opt;
}

core::tran_stability_options campaign_spec::transient_options() const
{
    core::tran_stability_options opt;
    opt.source = tran_source;
    opt.step_size = tran_step;
    opt.tstop = tran_tstop;
    opt.dt = tran_dt;
    return opt;
}

void check_sweep(const campaign_spec& spec)
{
    engine::check_fit_tol(spec.fit_tol, "farm: sweep fit_tol");
    if (spec.analysis == campaign_analysis::stability
        && spec.points_per_decade < engine::min_points_per_decade)
        throw analysis_error("farm: sweep points_per_decade = "
                             + std::to_string(spec.points_per_decade)
                             + " is below the 4 per decade a stability campaign needs");
    if (spec.analysis == campaign_analysis::transient)
        spice::check_tran_window("farm: transient", spec.tran_tstop, spec.tran_dt);
}

json_value to_json(const campaign_spec& spec)
{
    json_value grid = json_value::object();
    grid.set("temps", reals_to_json(spec.grid.temps));
    json_value corners = json_value::array();
    for (const core::corner_def& c : spec.grid.corners) {
        json_value corner = json_value::object();
        corner.set("name", json_value::str(c.name));
        corner.set("overrides", overrides_to_json(c.overrides));
        corners.push_back(std::move(corner));
    }
    grid.set("corners", std::move(corners));
    json_value axes = json_value::array();
    for (const core::param_axis& a : spec.grid.axes) {
        json_value axis = json_value::object();
        axis.set("name", json_value::str(a.name));
        axis.set("values", reals_to_json(a.values));
        axes.push_back(std::move(axis));
    }
    grid.set("axes", std::move(axes));

    json_value doc = json_value::object();
    doc.set("schema", json_value::str(campaign_schema));
    doc.set("netlist", json_value::str(spec.netlist));
    doc.set("node", json_value::str(spec.node));
    // Stability campaigns omit the analysis member entirely: their plan
    // bytes stay identical to pre-impedance builds, so shard files from
    // older binaries still pass the merge step's byte-exact campaign
    // echo comparison.
    if (spec.analysis == campaign_analysis::impedance) {
        doc.set("analysis", json_value::str("impedance"));
        json_value sources = json_value::array();
        for (const std::string& name : spec.source_elements)
            sources.push_back(json_value::str(name));
        doc.set("source_elements", std::move(sources));
    } else if (spec.analysis == campaign_analysis::transient) {
        doc.set("analysis", json_value::str("transient"));
        json_value tran = json_value::object();
        tran.set("tstop", json_value::number(spec.tran_tstop));
        tran.set("dt", json_value::number(spec.tran_dt));
        tran.set("step", json_value::number(spec.tran_step));
        if (!spec.tran_source.empty())
            tran.set("source", json_value::str(spec.tran_source));
        doc.set("transient", std::move(tran));
    }
    doc.set("grid", std::move(grid));
    doc.set("points", json_value::number(spec.grid.size()));
    json_value sweep = json_value::object();
    sweep.set("fstart", json_value::number(spec.fstart));
    sweep.set("fstop", json_value::number(spec.fstop));
    sweep.set("points_per_decade", json_value::number(spec.points_per_decade));
    sweep.set("adaptive", json_value::boolean(spec.adaptive));
    sweep.set("fit_tol", json_value::number(spec.fit_tol));
    sweep.set("anchors_per_decade", json_value::number(spec.anchors_per_decade));
    doc.set("sweep", std::move(sweep));
    return doc;
}

campaign_spec campaign_from_json(const json_value& doc)
{
    if (const json_value* schema = doc.find("schema");
        schema == nullptr || schema->as_string() != campaign_schema)
        throw analysis_error("farm: not an acstab campaign plan (bad schema field)");

    campaign_spec spec;
    spec.netlist = doc.at("netlist").as_string();
    spec.node = doc.at("node").as_string();
    // Plans from builds predating impedance campaigns carry no analysis
    // field; they are stability campaigns.
    if (const json_value* kind = doc.find("analysis")) {
        if (kind->as_string() == "impedance")
            spec.analysis = campaign_analysis::impedance;
        else if (kind->as_string() == "transient")
            spec.analysis = campaign_analysis::transient;
        else if (kind->as_string() != "stability")
            throw analysis_error("farm: unknown campaign analysis kind '"
                                 + kind->as_string() + "'");
    }
    if (const json_value* sources = doc.find("source_elements"))
        for (const json_value& name : sources->items())
            spec.source_elements.push_back(name.as_string());
    if (spec.analysis == campaign_analysis::transient) {
        const json_value& tran = doc.at("transient");
        spec.tran_tstop = tran.at("tstop").as_number();
        spec.tran_dt = tran.at("dt").as_number();
        spec.tran_step = tran.at("step").as_number();
        if (const json_value* src = tran.find("source"))
            spec.tran_source = src->as_string();
    }

    const json_value& grid = doc.at("grid");
    spec.grid.temps = reals_from_json(grid.at("temps"));
    for (const json_value& c : grid.at("corners").items())
        spec.grid.corners.push_back(
            {c.at("name").as_string(), overrides_from_json(c.at("overrides"))});
    for (const json_value& a : grid.at("axes").items())
        spec.grid.axes.push_back({a.at("name").as_string(), reals_from_json(a.at("values"))});

    const json_value& sweep = doc.at("sweep");
    spec.fstart = sweep.at("fstart").as_number();
    spec.fstop = sweep.at("fstop").as_number();
    spec.points_per_decade = sweep.at("points_per_decade").as_index();
    spec.adaptive = sweep.at("adaptive").as_bool();
    spec.fit_tol = sweep.at("fit_tol").as_number();
    spec.anchors_per_decade = sweep.at("anchors_per_decade").as_index();
    for (const char* key : retired_sweep_keys)
        if (sweep.find(key) != nullptr)
            throw analysis_error(std::string("farm: plan sweep key '") + key
                                 + "' is retired (solver tuning is no longer a plan setting)");
    check_sweep(spec);

    // The recorded point count guards against grid-decoding drift between
    // the planning and executing binaries.
    if (doc.at("points").as_index() != spec.grid.size())
        throw analysis_error("farm: plan's point count disagrees with its grid");
    return spec;
}

shard_range shard_slice(std::size_t total, std::size_t shard, std::size_t shard_count)
{
    if (shard_count == 0)
        throw analysis_error("farm: shard count must be >= 1");
    if (shard >= shard_count)
        throw analysis_error("farm: shard index " + std::to_string(shard)
                             + " out of range for " + std::to_string(shard_count)
                             + " shards");
    const std::size_t base = total / shard_count;
    const std::size_t extra = total % shard_count;
    shard_range r;
    r.begin = shard * base + std::min(shard, extra);
    r.end = r.begin + base + (shard < extra ? 1 : 0);
    return r;
}

} // namespace acstab::farm
