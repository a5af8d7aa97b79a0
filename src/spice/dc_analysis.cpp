#include "spice/dc_analysis.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace acstab::spice {

namespace {

    struct newton_outcome {
        bool converged = false;
        int iterations = 0;
        bool singular = false; ///< the linearized system could not be factored
        bool non_finite = false; ///< the solve returned a non-finite value
    };

    /// Shortest round-trip number text for the non-convergence ladder
    /// diagnostics (std::to_chars: locale-independent, unlike %g).
    [[nodiscard]] std::string format_value(real v)
    {
        char buf[40];
        const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
        return ec == std::errc() ? std::string(buf, ptr) : std::string("?");
    }

    /// One ladder rung's verdict: what the Newton loop did at the point
    /// it gave up.
    [[nodiscard]] std::string describe_outcome(const newton_outcome& out)
    {
        if (out.singular)
            return "singular matrix after " + std::to_string(out.iterations)
                + " iteration(s)";
        if (out.non_finite)
            return "non-finite solution after " + std::to_string(out.iterations)
                + " iteration(s)";
        return "no convergence in " + std::to_string(out.iterations) + " iteration(s)";
    }

    /// One damped Newton solve at fixed continuation parameters. Updates x
    /// in place; returns convergence status instead of throwing so the
    /// continuation ladder can react.
    newton_outcome newton_solve(circuit& c, std::vector<real>& x, const stamp_params& params,
                                real gshunt, const dc_options& opt)
    {
        const std::size_t n = c.unknown_count();
        const std::size_t nodes = c.node_count();
        newton_outcome out;

        for (int it = 0; it < opt.max_iterations; ++it) {
            system_builder<real> b(n);
            for (const auto& dev : c.devices())
                dev->stamp_dc(x, params, b);
            if (gshunt > 0.0)
                for (std::size_t i = 0; i < nodes; ++i)
                    b.add(static_cast<node_id>(i), static_cast<node_id>(i), gshunt);

            std::vector<real> x_new;
            try {
                x_new = solve_system(b, opt.solver);
            } catch (const numeric_error&) {
                out.singular = true;
                out.iterations = it + 1;
                return out; // singular at this continuation point
            }

            // A non-finite value never converges, and Newton cannot
            // recover from it: give up on this continuation point.
            if (!std::all_of(x_new.begin(), x_new.end(), [](real v) { return std::isfinite(v); })) {
                out.non_finite = true;
                out.iterations = it + 1;
                return out;
            }

            bool converged = true;
            real worst = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const real delta = std::fabs(x_new[i] - x[i]);
                const real floor_tol = i < nodes ? opt.vntol : opt.abstol;
                const real tol = opt.reltol * std::max(std::fabs(x_new[i]), std::fabs(x[i]))
                    + floor_tol;
                if (delta > tol)
                    converged = false;
                worst = std::max(worst, delta);
            }

            if (converged) {
                x = std::move(x_new);
                out.converged = true;
                out.iterations = it + 1;
                return out;
            }

            // Damping: clamp the infinity norm of the update.
            real scale = 1.0;
            if (opt.max_step > 0.0 && worst > opt.max_step)
                scale = opt.max_step / worst;
            for (std::size_t i = 0; i < n; ++i)
                x[i] += scale * (x_new[i] - x[i]);
            out.iterations = it + 1;
        }
        return out;
    }

    void reset_devices(circuit& c)
    {
        for (const auto& dev : c.devices())
            dev->dc_begin();
    }

    /// Append one attempted-strategy clause to the ladder diagnostic that
    /// a final convergence_error carries.
    void log_rung(std::string& ladder, const std::string& clause)
    {
        if (!ladder.empty())
            ladder += "; ";
        ladder += clause;
    }

    [[nodiscard]] bool try_plain(circuit& c, real gshunt, const dc_options& opt,
                                 const stamp_params& params, dc_result& result,
                                 std::string& ladder)
    {
        reset_devices(c);
        std::vector<real> x(c.unknown_count(), 0.0);
        const newton_outcome plain = newton_solve(c, x, params, gshunt, opt);
        if (!plain.converged) {
            log_rung(ladder, "plain Newton (gshunt=" + format_value(gshunt) + "): "
                                 + describe_outcome(plain));
            return false;
        }
        result.solution = std::move(x);
        result.iterations = plain.iterations;
        result.used_gshunt = gshunt > 0.0;
        return true;
    }

    [[nodiscard]] bool try_gmin_stepping(circuit& c, real gshunt, const dc_options& opt,
                                         dc_result& result, std::string& ladder)
    {
        reset_devices(c);
        std::vector<real> x(c.unknown_count(), 0.0);
        stamp_params step;
        step.continuation = true;
        for (real g = 1e-2; g >= opt.gmin * 0.99; g *= 0.1) {
            step.gmin = g;
            const newton_outcome out = newton_solve(c, x, step, gshunt, opt);
            if (!out.converged) {
                log_rung(ladder, "gmin stepping (gshunt=" + format_value(gshunt)
                                     + "): stalled at gmin=" + format_value(g) + ", "
                                     + describe_outcome(out));
                return false;
            }
        }
        step.gmin = opt.gmin;
        step.continuation = false;
        const newton_outcome last = newton_solve(c, x, step, gshunt, opt);
        if (!last.converged) {
            log_rung(ladder, "gmin stepping (gshunt=" + format_value(gshunt)
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

    [[nodiscard]] bool try_source_stepping(circuit& c, real gshunt, const dc_options& opt,
                                           dc_result& result, std::string& ladder)
    {
        reset_devices(c);
        std::vector<real> x_good(c.unknown_count(), 0.0);
        stamp_params step;
        step.gmin = opt.gmin;
        step.continuation = true;

        real last_good = 0.0;
        real increment = 0.05;
        int failures = 0;
        newton_outcome last_attempt;
        while (last_good < 1.0) {
            const real scale = std::min(1.0, last_good + increment);
            step.source_scale = scale;
            std::vector<real> x = x_good;
            last_attempt = newton_solve(c, x, step, gshunt, opt);
            if (last_attempt.converged) {
                last_good = scale;
                x_good = std::move(x);
                increment *= 1.5;
            } else {
                increment *= 0.25;
                if (++failures > 16 || increment < 1e-5) {
                    log_rung(ladder, "source stepping (gshunt=" + format_value(gshunt)
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
        const newton_outcome final_solve = newton_solve(c, x_good, step, gshunt, opt);
        if (!final_solve.converged) {
            log_rung(ladder, "source stepping (gshunt=" + format_value(gshunt)
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

    stamp_params params;
    params.gmin = opt.gmin;

    // Every rung the ladder actually attempts records its gshunt value
    // and where the Newton loop gave up, so a non-convergence error tells
    // the user (and the farm's quarantine records) exactly what was
    // tried instead of a generic "did not converge".
    std::string ladder;

    if (try_plain(c, opt.gshunt, opt, params, result, ladder))
        return result;
    const bool retry_shunt = opt.gshunt_retry > opt.gshunt;
    if (retry_shunt && try_plain(c, opt.gshunt_retry, opt, params, result, ladder))
        return result;

    const real gshunt = std::max(opt.gshunt, retry_shunt ? opt.gshunt_retry : opt.gshunt);
    if (opt.allow_gmin_stepping) {
        if (try_gmin_stepping(c, gshunt, opt, result, ladder))
            return result;
    } else {
        log_rung(ladder, "gmin stepping: disabled");
    }
    if (opt.allow_source_stepping) {
        if (try_source_stepping(c, gshunt, opt, result, ladder))
            return result;
    } else {
        log_rung(ladder, "source stepping: disabled");
    }

    throw convergence_error("dc operating point did not converge; attempted: " + ladder);
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
