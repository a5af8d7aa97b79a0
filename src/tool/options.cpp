#include "tool/options.h"

#include <cmath>
#include <limits>
#include <string_view>

#include "common/error.h"
#include "engine/adaptive_sweep.h"
#include "numeric/interpolation.h"
#include "spice/units.h"

namespace acstab::tool {

namespace {

    /// Value of a count flag (--ppd, --threads, --workers, ...): a whole
    /// number that fits in size_t. Checked before the conversion, since
    /// casting a negative, fractional or oversized double to size_t
    /// silently changes the count (or is undefined behaviour). Zero
    /// passes: --threads 0 and --size 0 mean "the default".
    [[nodiscard]] std::size_t parse_count(std::string_view key, const std::string& text)
    {
        const real v = spice::parse_spice_number(text);
        constexpr real limit = static_cast<real>(std::numeric_limits<std::size_t>::max());
        if (!(v >= 0.0) || v != std::floor(v) || !(v < limit))
            throw analysis_error(std::string(key) + " needs a whole number >= 0, got '" + text
                                 + "'");
        return static_cast<std::size_t>(v);
    }

} // namespace

cli_options parse_cli_options(int argc, char** argv, bool allow_positionals)
{
    cli_options opt;
    int i = 0;
    const auto need_value = [&](std::string_view key) -> std::string {
        if (i + 1 >= argc)
            throw analysis_error(std::string(key) + " needs a value");
        return argv[++i];
    };
    const auto need_count = [&](std::string_view key) { return parse_count(key, need_value(key)); };
    for (; i < argc; ++i) {
        const std::string_view key = argv[i];
        if (key == "--node")
            opt.node = need_value(key);
        else if (key == "--probe")
            opt.probe = need_value(key);
        else if (key == "--fstart") {
            opt.fstart = spice::parse_spice_number(need_value(key));
            opt.fstart_set = true;
        } else if (key == "--fstop") {
            opt.fstop = spice::parse_spice_number(need_value(key));
            opt.fstop_set = true;
        } else if (key == "--ppd") {
            opt.ppd = need_count(key);
            opt.ppd_set = true;
        } else if (key == "--tstop")
            opt.tstop = spice::parse_spice_number(need_value(key));
        else if (key == "--dt")
            opt.dt = spice::parse_spice_number(need_value(key));
        else if (key == "--threads")
            opt.threads = need_count(key);
        else if (key == "--adaptive")
            opt.adaptive = true;
        else if (key == "--fit-tol") {
            opt.fit_tol = spice::parse_spice_number(need_value(key));
            engine::check_fit_tol(opt.fit_tol, key);
        }
        else if (key == "--anchors-per-decade")
            opt.anchors_per_decade = need_count(key);
        else if (key == "--size")
            opt.size = need_count(key);
        else if (key == "--solver-stats")
            opt.solver_stats = true;
        else if (key == "--step")
            opt.step = spice::parse_spice_number(need_value(key));
        else if (key == "--csv")
            opt.csv = true;
        else if (key == "--annotate")
            opt.annotate = true;
        else if (key == "--all")
            opt.all_nodes = true;
        else if (key == "--source")
            opt.source = need_value(key);
        else if (key == "--analysis")
            opt.analysis = need_value(key);
        else if (key == "--temps")
            opt.temps = need_value(key);
        else if (key == "--corner")
            opt.corners.push_back(need_value(key));
        else if (key == "--param")
            opt.params.push_back(need_value(key));
        else if (key == "--shard")
            opt.shard = need_value(key);
        else if (key == "--out")
            opt.out = need_value(key);
        else if (key == "--table")
            opt.table = true;
        else if (key == "--workers")
            opt.workers = need_count(key);
        else if (key == "--dir")
            opt.dir = need_value(key);
        else if (key == "--resume")
            opt.resume = true;
        else if (key == "--point-timeout")
            opt.point_timeout = spice::parse_spice_number(need_value(key));
        else if (key == "--retries")
            opt.retries = need_count(key);
        else if (key == "--quiet")
            opt.quiet = true;
        else if (key == "--shard-file")
            opt.shard_file = need_value(key);
        else if (key == "--socket")
            opt.socket_path = need_value(key);
        else if (key == "--stdio")
            opt.stdio = true;
        else if (key == "--max-concurrent")
            opt.max_concurrent = need_count(key);
        else if (key == "--queue-depth")
            opt.queue_depth = need_count(key);
        else if (key == "--max-frame")
            opt.max_frame = need_count(key);
        else if (key == "--drain-grace")
            opt.drain_grace = spice::parse_spice_number(need_value(key));
        else if (key == "--worker-id")
            opt.worker_id = need_count(key);
        else if (allow_positionals && !key.empty() && key.substr(0, 2) != "--")
            opt.positionals.emplace_back(key);
        else
            throw analysis_error("unknown option '" + std::string(key) + "'");
    }
    return opt;
}

namespace {

    /// Split on a separator, keeping empty fields as errors at the call
    /// sites (every grammar here forbids them).
    [[nodiscard]] std::vector<std::string> split(const std::string& text, char sep)
    {
        std::vector<std::string> out;
        std::size_t start = 0;
        while (true) {
            const std::size_t pos = text.find(sep, start);
            out.push_back(text.substr(start, pos - start));
            if (pos == std::string::npos)
                return out;
            start = pos + 1;
        }
    }

} // namespace

std::vector<real> parse_value_list(const std::string& text)
{
    if (text.empty())
        throw analysis_error("expected a comma-separated value list");
    std::vector<real> values;
    for (const std::string& field : split(text, ','))
        values.push_back(spice::parse_spice_number(field));
    return values;
}

std::vector<std::string> parse_name_list(const std::string& text)
{
    if (text.empty())
        throw analysis_error("expected a comma-separated name list");
    std::vector<std::string> names = split(text, ',');
    for (const std::string& name : names)
        if (name.empty())
            throw analysis_error("empty name in list '" + text + "'");
    return names;
}

core::corner_def parse_corner_spec(const std::string& text)
{
    core::corner_def corner;
    const std::size_t colon = text.find(':');
    corner.name = text.substr(0, colon);
    if (corner.name.empty())
        throw analysis_error("corner spec needs a name ('name:p=v,...'), got '" + text + "'");
    if (colon == std::string::npos)
        return corner;
    const std::string payload = text.substr(colon + 1);
    if (payload.empty())
        throw analysis_error("corner '" + corner.name + "' has an empty override list");
    for (const std::string& field : split(payload, ',')) {
        const std::size_t eq = field.find('=');
        if (eq == 0 || eq == std::string::npos || eq + 1 == field.size())
            throw analysis_error("corner override must be p=value, got '" + field + "'");
        corner.overrides[field.substr(0, eq)]
            = spice::parse_spice_number(field.substr(eq + 1));
    }
    return corner;
}

core::param_axis parse_param_axis(const std::string& text)
{
    const std::size_t eq = text.find('=');
    if (eq == 0 || eq == std::string::npos || eq + 1 == text.size())
        throw analysis_error("param axis must be name=v1,v2,..., got '" + text + "'");
    core::param_axis axis;
    axis.name = text.substr(0, eq);
    axis.values = parse_value_list(text.substr(eq + 1));
    return axis;
}

shard_spec parse_shard_spec(const std::string& text)
{
    const std::size_t slash = text.find('/');
    if (slash == 0 || slash == std::string::npos || slash + 1 == text.size())
        throw analysis_error("shard must be k/N (1-based), got '" + text + "'");
    shard_spec spec;
    const real k = spice::parse_spice_number(text.substr(0, slash));
    const real n = spice::parse_spice_number(text.substr(slash + 1));
    if (!(k >= 1.0) || !(n >= 1.0) || k != std::floor(k) || n != std::floor(n) || k > n)
        throw analysis_error("shard must satisfy 1 <= k <= N, got '" + text + "'");
    spec.index = static_cast<std::size_t>(k) - 1;
    spec.count = static_cast<std::size_t>(n);
    return spec;
}

std::size_t sweep_point_count(real fstart, real fstop, std::size_t ppd)
{
    if (!(fstart > 0.0) || !(fstop > fstart))
        throw analysis_error("sweep: need 0 < fstart < fstop");
    // Delegate to the one shared grid helper so the CLI, core::sweep_spec
    // and the adaptive driver always realize identical grids.
    return numeric::log_grid(fstart, fstop, ppd).size();
}

} // namespace acstab::tool
