#include "spice/tran_analysis.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace acstab::spice {

namespace {

    /// Newton iteration for one candidate time step: companion-model
    /// stamps plus gshunt, no step limit. Updates x in place and reports
    /// how the loop ended so the halving ladder can react. `shared`
    /// selects the shared-symbolic solver; null runs the one-shot path.
    newton_outcome solve_step(circuit& c, std::vector<real>& x, const tran_params& p,
                              const tran_options& opt, newton_solver* shared)
    {
        newton_rules rules;
        rules.max_iterations = opt.max_newton;
        rules.reltol = opt.reltol;
        rules.vntol = opt.vntol;
        rules.abstol = opt.abstol;
        const std::size_t nodes = c.node_count();
        const auto stamp = [&](const std::vector<real>& xi, system_builder<real>& b) {
            for (const auto& dev : c.devices())
                dev->stamp_tran(xi, p, b);
            stamp_gshunt(nodes, opt.dc.gshunt, b);
        };
        return newton_iterate(x, nodes, rules, stamp, shared, opt.solver);
    }

} // namespace

std::vector<real> tran_result::unknown_waveform(std::size_t index) const
{
    std::vector<real> out(step_count());
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = states[k * unknowns + index];
    return out;
}

void check_tran_window(const std::string& who, real tstop, real dt)
{
    if (!(tstop > 0.0))
        throw analysis_error(who + ": tstop must be positive");
    if (!(dt >= 0.0))
        throw analysis_error(who + ": dt = " + format_value(dt) + " s is negative");
    if (dt > 0.0 && !(tstop / dt <= max_tran_steps)) {
        char steps[32];
        std::snprintf(steps, sizeof steps, "%.3g", tstop / dt);
        throw analysis_error(who + ": tstop = " + format_value(tstop) + " s at dt = "
                             + format_value(dt) + " s is " + steps
                             + " steps, above the limit of "
                             + std::to_string(static_cast<long>(max_tran_steps)));
    }
}

tran_result transient(circuit& c, const tran_options& opt)
{
    c.finalize();
    check_tran_window("transient", opt.tstop, opt.dt);
    const real dt_nominal = opt.dt > 0.0 ? opt.dt : opt.tstop / 1000.0;
    const real dt_min = dt_nominal * opt.dtmin_factor;

    // Initial operating point (sources at their t=0 DC values).
    const dc_result op = dc_operating_point(c, opt.dc);
    for (const auto& dev : c.devices())
        dev->tran_begin(op.solution);

    // Breakpoints from every source waveform.
    std::vector<real> breakpoints;
    for (const auto& dev : c.devices())
        dev->collect_breakpoints(opt.tstop, breakpoints);
    std::sort(breakpoints.begin(), breakpoints.end());
    breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()), breakpoints.end());

    // One shared symbolic factorization serves every Newton solve of the
    // run; the one-shot path re-factors from scratch per solve.
    std::unique_ptr<newton_solver> shared;
    if (opt.shared_solver && opt.solver == solver_kind::sparse)
        shared = std::make_unique<newton_solver>(c.unknown_count());

    // The waveform buffers grow geometrically as steps are accepted, so a
    // run reallocates them O(log steps) times.
    tran_result res;
    res.unknowns = op.solution.size();
    res.time.push_back(0.0);
    res.states.insert(res.states.end(), op.solution.begin(), op.solution.end());

    // The accepted state and the candidate a step iterates on; both keep
    // their buffers for the whole run.
    std::vector<real> x = op.solution;
    std::vector<real> x_try;
    real t = 0.0;
    std::size_t next_bp = 0;
    bool force_be = true; // BE kick at t = 0

    const stamp_params dc_params{.gmin = opt.dc.gmin, .continuation = false, .source_scale = 1.0};

    while (t < opt.tstop * (1.0 - 1e-12)) {
        real dt = std::min(dt_nominal, opt.tstop - t);
        // Land exactly on the next breakpoint.
        bool hits_bp = false;
        if (next_bp < breakpoints.size() && t + dt >= breakpoints[next_bp] - 1e-15) {
            dt = breakpoints[next_bp] - t;
            hits_bp = true;
            if (dt <= 0.0) {
                ++next_bp;
                continue;
            }
        }

        bool accepted = false;
        bool only_non_finite = true;
        const real dt_first = dt;
        std::string ladder;
        while (!accepted && !res.diverged) {
            tran_params p;
            p.t0 = t;
            p.t1 = t + dt;
            p.dt = dt;
            p.use_be = force_be;
            p.dc = dc_params;

            x_try.assign(x.begin(), x.end());
            const newton_outcome out = solve_step(c, x_try, p, opt, shared.get());
            if (out.converged) {
                for (const auto& dev : c.devices())
                    dev->tran_accept(x_try, p);
                x.swap(x_try);
                t = p.t1;
                res.time.push_back(t);
                res.states.insert(res.states.end(), x.begin(), x.end());
                accepted = true;
                force_be = false;
            } else {
                log_rung(ladder, "dt=" + format_value(dt) + ": " + describe_outcome(out));
                only_non_finite = only_non_finite && out.non_finite;
                dt *= 0.5;
                hits_bp = false;
                if (dt < dt_min && only_non_finite)
                    res.diverged = true; // the response outgrew double range
                else if (dt < dt_min)
                    throw convergence_error(
                        "transient: Newton failed at t = " + format_value(t)
                        + " s advancing toward t = " + format_value(t + dt_first)
                        + " s; attempted: " + ladder + "; minimum step "
                        + format_value(dt_min) + " s (dt * dtmin_factor) reached");
            }
        }
        if (res.diverged)
            break;
        if (hits_bp) {
            ++next_bp;
            force_be = true; // restart the integrator across the corner
        }
    }
    if (shared)
        res.solver = shared->stats();
    return res;
}

std::vector<real> node_waveform(const circuit& c, const tran_result& res,
                                const std::string& node_name)
{
    const auto id = c.find_node(node_name);
    if (!id)
        throw analysis_error("unknown node '" + node_name + "'");
    if (*id < 0)
        return std::vector<real>(res.step_count(), 0.0);
    return res.unknown_waveform(static_cast<std::size_t>(*id));
}

} // namespace acstab::spice
