#include "core/sweeps.h"

#include "engine/sweep_engine.h"

namespace acstab::core {

std::vector<grid_point_result>
sweep_stability_grid(const grid_circuit_factory& factory, const param_grid& grid,
                     std::size_t begin, std::size_t end, const stability_options& opt)
{
    const std::size_t total = grid.size();
    if (begin > end || end > total)
        throw analysis_error("sweep grid: bad point range [" + std::to_string(begin) + ", "
                             + std::to_string(end) + ") of " + std::to_string(total));

    // Points run concurrently on the shared pool; the per-point analysis
    // is forced serial so a corner farm of cheap points does not fight
    // the frequency-level parallelism for cores.
    stability_options point_opt = opt;
    point_opt.threads = 1;

    std::vector<grid_point_result> out(end - begin);
    engine::sweep_engine_options eopt;
    eopt.threads = opt.threads;
    const engine::sweep_engine eng(eopt);
    eng.for_each(end - begin, [&](std::size_t i) {
        grid_point_result& res = out[i];
        res.point = grid.point(begin + i);
        spice::circuit c;
        std::string node;
        try {
            node = factory(c, res.point);
            res.node.node = node;
            stability_analyzer an(c, point_opt);
            res.node = an.analyze_node(node);
        } catch (const convergence_error& e) {
            res.status = point_status::dc_failed;
            res.error = e.what();
            res.node = node_stability{};
            res.node.node = node;
        } catch (const error& e) {
            // Any other per-point failure — a singular matrix at a
            // pathological corner, a parse error from an override — is
            // recorded so the rest of the campaign survives.
            res.status = point_status::analysis_failed;
            res.error = e.what();
            res.node = node_stability{};
            res.node.node = node;
        }
    });
    return out;
}

std::vector<grid_point_result> sweep_stability_grid(const grid_circuit_factory& factory,
                                                    const param_grid& grid,
                                                    const stability_options& opt)
{
    return sweep_stability_grid(factory, grid, 0, grid.size(), opt);
}

std::vector<grid_point_result> sweep_stability_grid(const circuit_template& tmpl,
                                                    const std::string& node,
                                                    const param_grid& grid,
                                                    const stability_options& opt)
{
    return sweep_stability_grid(
        [&tmpl, &node](spice::circuit& c, const grid_point& pt) {
            c = std::move(tmpl.build(pt).ckt);
            return node;
        },
        grid, opt);
}

} // namespace acstab::core
