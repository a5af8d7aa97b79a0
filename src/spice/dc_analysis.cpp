#include "spice/dc_analysis.h"

#include <algorithm>
#include <memory>

#include "spice/newton_solver.h"

namespace acstab::spice {

namespace {

    /// Unlimited Newton steps the returned operating point takes after
    /// the tolerance test passes, until its update is at roundoff.
    constexpr int max_polish = 3;

    /// One dc_operating_point call: the circuit and options, the shared
    /// solver every rung runs on (null on the dense oracle path) and the
    /// ladder diagnostic of the rungs attempted so far.
    struct dc_run {
        circuit& c;
        const dc_options& opt;
        newton_solver* shared;
        std::string ladder;
    };

    /// One Newton solve at fixed continuation parameters, each node's
    /// update limited to opt.max_step. Updates x in place; returns
    /// convergence status instead of throwing so the continuation ladder
    /// can react. `polish` marks the point the analysis returns.
    newton_outcome newton_solve(dc_run& run, std::vector<real>& x, const stamp_params& params,
                                real gshunt, bool polish)
    {
        newton_rules rules;
        rules.max_iterations = run.opt.max_iterations;
        rules.reltol = run.opt.reltol;
        rules.vntol = run.opt.vntol;
        rules.abstol = run.opt.abstol;
        rules.max_step = run.opt.max_step;
        rules.max_polish = polish ? max_polish : 0;
        const circuit& c = run.c;
        const std::size_t nodes = c.node_count();
        const auto stamp = [&](const std::vector<real>& xi, system_builder<real>& b) {
            for (const auto& dev : c.devices())
                dev->stamp_dc(xi, params, b);
            stamp_gshunt(nodes, gshunt, b);
        };
        return newton_iterate(x, nodes, rules, stamp, run.shared, run.opt.solver);
    }

    void reset_devices(circuit& c)
    {
        for (const auto& dev : c.devices())
            dev->dc_begin();
    }

    [[nodiscard]] bool try_plain(dc_run& run, real gshunt, dc_result& result)
    {
        reset_devices(run.c);
        std::vector<real> x(run.c.unknown_count(), 0.0);
        stamp_params params;
        params.gmin = run.opt.gmin;
        const newton_outcome plain = newton_solve(run, x, params, gshunt, true);
        if (!plain.converged) {
            log_rung(run.ladder, "plain Newton (gshunt=" + format_value(gshunt) + "): "
                                     + describe_outcome(plain));
            return false;
        }
        result.solution = std::move(x);
        result.iterations = plain.iterations;
        result.used_gshunt = gshunt > 0.0;
        return true;
    }

    [[nodiscard]] bool try_gmin_stepping(dc_run& run, real gshunt, dc_result& result)
    {
        const dc_options& opt = run.opt;
        reset_devices(run.c);
        std::vector<real> x(run.c.unknown_count(), 0.0);
        stamp_params step;
        step.continuation = true;
        for (real g = 1e-2; g >= opt.gmin * 0.99; g *= 0.1) {
            step.gmin = g;
            const newton_outcome out = newton_solve(run, x, step, gshunt, false);
            if (!out.converged) {
                log_rung(run.ladder, "gmin stepping (gshunt=" + format_value(gshunt)
                                         + "): stalled at gmin=" + format_value(g) + ", "
                                         + describe_outcome(out));
                return false;
            }
        }
        step.gmin = opt.gmin;
        step.continuation = false;
        const newton_outcome last = newton_solve(run, x, step, gshunt, true);
        if (!last.converged) {
            log_rung(run.ladder, "gmin stepping (gshunt=" + format_value(gshunt)
                                     + "): final polish at gmin=" + format_value(opt.gmin)
                                     + " failed, " + describe_outcome(last));
            return false;
        }
        result.solution = std::move(x);
        result.iterations = last.iterations;
        result.used_gmin_stepping = true;
        result.used_gshunt = gshunt > 0.0;
        return true;
    }

    [[nodiscard]] bool try_source_stepping(dc_run& run, real gshunt, dc_result& result)
    {
        reset_devices(run.c);
        std::vector<real> x_good(run.c.unknown_count(), 0.0);
        stamp_params step;
        step.gmin = run.opt.gmin;
        step.continuation = true;

        real last_good = 0.0;
        real increment = 0.05;
        int failures = 0;
        newton_outcome last_attempt;
        while (last_good < 1.0) {
            const real scale = std::min(1.0, last_good + increment);
            step.source_scale = scale;
            std::vector<real> x = x_good;
            last_attempt = newton_solve(run, x, step, gshunt, false);
            if (last_attempt.converged) {
                last_good = scale;
                x_good = std::move(x);
                increment *= 1.5;
            } else {
                increment *= 0.25;
                if (++failures > 16 || increment < 1e-5) {
                    log_rung(run.ladder, "source stepping (gshunt=" + format_value(gshunt)
                                             + "): stalled at source scale "
                                             + format_value(last_good) + " after "
                                             + std::to_string(failures) + " rejected steps, "
                                             + describe_outcome(last_attempt));
                    return false;
                }
            }
        }
        step.source_scale = 1.0;
        step.continuation = false;
        const newton_outcome final_solve = newton_solve(run, x_good, step, gshunt, true);
        if (!final_solve.converged) {
            log_rung(run.ladder, "source stepping (gshunt=" + format_value(gshunt)
                                     + "): full-source polish failed, "
                                     + describe_outcome(final_solve));
            return false;
        }
        result.solution = std::move(x_good);
        result.iterations = final_solve.iterations;
        result.used_source_stepping = true;
        result.used_gshunt = gshunt > 0.0;
        return true;
    }

} // namespace

dc_result dc_operating_point(circuit& c, const dc_options& opt)
{
    c.finalize();
    dc_result result;

    // One shared-symbolic solver serves every rung; the gshunt rungs
    // change the stamp pattern, which the solver observes and rebuilds
    // for. The dense reference path solves one-shot.
    std::unique_ptr<newton_solver> shared;
    if (opt.solver == solver_kind::sparse)
        shared = std::make_unique<newton_solver>(c.unknown_count());

    // Every rung the ladder actually attempts records its gshunt value
    // and where the Newton loop gave up, so a non-convergence error tells
    // the user (and the farm's quarantine records) exactly what was
    // tried instead of a generic "did not converge".
    dc_run run{c, opt, shared.get(), {}};

    if (try_plain(run, opt.gshunt, result))
        return result;
    const bool retry_shunt = opt.gshunt_retry > opt.gshunt;
    if (retry_shunt && try_plain(run, opt.gshunt_retry, result))
        return result;

    const real gshunt = std::max(opt.gshunt, retry_shunt ? opt.gshunt_retry : opt.gshunt);
    if (opt.allow_gmin_stepping) {
        if (try_gmin_stepping(run, gshunt, result))
            return result;
    } else {
        log_rung(run.ladder, "gmin stepping: disabled");
    }
    if (opt.allow_source_stepping) {
        if (try_source_stepping(run, gshunt, result))
            return result;
    } else {
        log_rung(run.ladder, "source stepping: disabled");
    }

    throw convergence_error("dc operating point did not converge; attempted: " + run.ladder);
}

real node_voltage(const circuit& c, const std::vector<real>& solution,
                  const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    if (*id < 0)
        return 0.0;
    return solution[static_cast<std::size_t>(*id)];
}

} // namespace acstab::spice
