#include "core/tran_stability.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/transient_overshoot.h"
#include "common/error.h"
#include "core/second_order.h"
#include "spice/devices/sources.h"
#include "spice/measure.h"
#include "spice/waveform_spec.h"

namespace acstab::core {

namespace {

    constexpr const char* injection_name = "tran_stability_injection";

    /// Indices of the alternating ring extrema of d(t) = y - final after
    /// the step onset.
    [[nodiscard]] std::vector<std::size_t> ring_extrema(const std::vector<real>& t,
                                                        const std::vector<real>& y,
                                                        real final_v, real t_on)
    {
        std::vector<std::size_t> ext;
        for (std::size_t i = 1; i + 1 < y.size(); ++i) {
            if (t[i] <= t_on)
                continue;
            const real d0 = y[i - 1] - final_v;
            const real d1 = y[i] - final_v;
            const real d2 = y[i + 1] - final_v;
            const bool max_above = d1 > 0.0 && d1 >= d0 && d1 >= d2;
            const bool min_below = d1 < 0.0 && d1 <= d0 && d1 <= d2;
            if ((max_above || min_below) && (ext.empty() || ext.back() + 1 < i))
                ext.push_back(i);
        }
        return ext;
    }

    /// Mean logarithmic decrement over same-side extrema pairs (one full
    /// ring period apart); nullopt when no usable pair exists.
    [[nodiscard]] std::optional<real> log_decrement(const std::vector<std::size_t>& ext,
                                                    const std::vector<real>& y, real final_v,
                                                    real floor_abs)
    {
        real sum = 0.0;
        std::size_t count = 0;
        for (std::size_t k = 0; k + 2 < ext.size(); ++k) {
            const real a = std::fabs(y[ext[k]] - final_v);
            const real b = std::fabs(y[ext[k + 2]] - final_v);
            if (a <= floor_abs || b <= floor_abs)
                continue;
            sum += std::log(a / b);
            ++count;
        }
        if (count == 0)
            return std::nullopt;
        return sum / static_cast<real>(count);
    }

} // namespace

tran_stability_result measure_tran_stability(spice::circuit& c, const std::string& node,
                                             const tran_stability_options& opt)
{
    if (!(opt.tstop > 0.0))
        throw analysis_error("transient stability: tstop must be positive");
    c.finalize();
    if (!c.find_node(node))
        throw analysis_error("transient stability: unknown node '" + node + "'");

    const real dt_eff = opt.dt > 0.0 ? opt.dt : opt.tstop / 4000.0;
    const real delay = opt.step_delay > 0.0 ? opt.step_delay : opt.tstop / 20.0;
    const real rise = dt_eff;

    // Install the stimulus: pulse the named element, or inject a current
    // step into the watched node (the time-domain analog of the AC
    // analysis' per-node stimulus) when none is named.
    spice::vsource* vs = nullptr;
    spice::isource* is = nullptr;
    std::optional<spice::waveform_spec> saved;
    if (!opt.source.empty()) {
        spice::device* dev = c.find_device(opt.source);
        if (!dev)
            throw analysis_error("transient stability: unknown source element '" + opt.source
                                 + "'");
        vs = dynamic_cast<spice::vsource*>(dev);
        is = dynamic_cast<spice::isource*>(dev);
        if (!vs && !is)
            throw analysis_error("transient stability: element '" + opt.source
                                 + "' is not a voltage or current source");
        saved = vs ? vs->spec() : is->spec();
        const auto step
            = spice::waveform_spec::make_step(saved->dc, saved->dc + opt.step_size, delay, rise);
        if (vs)
            vs->set_spec(step);
        else
            is->set_spec(step);
    } else {
        if (c.find_device(injection_name))
            throw analysis_error(std::string("transient stability: element name '")
                                 + injection_name + "' is already taken");
        const spice::node_id target = c.node(node);
        c.add<spice::isource>(injection_name, spice::ground_node, target,
                              spice::waveform_spec::make_step(0.0, opt.step_size, delay, rise));
    }
    const auto restore = [&] {
        if (saved) {
            if (vs)
                vs->set_spec(*saved);
            else
                is->set_spec(*saved);
        } else {
            c.remove_device(injection_name);
        }
    };

    analysis::step_response_metrics m;
    try {
        analysis::step_options sopt;
        sopt.tstop = opt.tstop;
        sopt.dt = dt_eff;
        sopt.tran = opt.tran;
        m = analysis::measure_step_response(c, node, sopt);
    } catch (...) {
        restore();
        throw;
    }
    restore();

    const std::vector<real> y = spice::node_waveform(c, m.raw, node);
    const std::vector<real>& tv = m.raw.time;

    tran_stability_result r;
    r.overshoot_pct = m.overshoot_pct;
    r.ringing_freq_hz = m.ringing_freq_hz;
    r.settling_time_s = m.settling_time_s;
    r.final_value = m.final_value;
    r.solver = m.raw.solver;
    r.ringing = m.ringing_freq_hz > 0.0;

    // A response that outgrew double range ends the run early: unstable.
    const bool finite = !m.raw.diverged;

    // Envelope statistics of the post-step deviation.
    const real swing = m.final_value - m.initial_value;
    const real t_tail = opt.tstop - 0.25 * (opt.tstop - delay);
    real dev_max = 0.0;
    real tail_max = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (tv[i] <= delay)
            continue;
        const real d = std::fabs(y[i] - m.final_value);
        dev_max = std::max(dev_max, d);
        if (tv[i] >= t_tail)
            tail_max = std::max(tail_max, d);
    }
    const real ref = std::max(std::fabs(swing), dev_max);

    // Damping estimate: overshoot inversion when the step has usable
    // swing, logarithmic decrement of the ring envelope otherwise. The
    // swing must carry the response (a band-pass node — e.g. an inductor
    // shorting the step at DC — settles back to its start, leaving a
    // numerically tiny swing that would turn the overshoot ratio into
    // noise), so it is measured against the deviation envelope.
    const bool swing_usable = std::fabs(swing) > 0.05 * dev_max;
    if (finite) {
        if (swing_usable && m.overshoot_pct > 0.1) {
            r.zeta = zeta_from_overshoot(m.overshoot_pct);
        } else if (r.ringing) {
            const auto ext = ring_extrema(tv, y, m.final_value, delay);
            const auto delta = log_decrement(ext, y, m.final_value, 1e-3 * dev_max);
            if (delta)
                r.zeta = zeta_from_log_decrement(*delta);
            else
                r.zeta = tail_max <= 0.5 * dev_max ? 1.0 : 0.0;
        }
    } else {
        r.zeta = 0.0;
    }
    r.equiv_pm_deg = std::min(phase_margin_rule_deg(r.zeta), 90.0);

    r.stable = finite
        && (dev_max == 0.0 || tail_max <= std::max(0.5 * dev_max, 0.02 * ref));

    // Decimated waveform for farm records.
    const std::size_t n = tv.size();
    if (n > 0) {
        const std::size_t stride
            = n <= opt.max_points ? 1 : (n + opt.max_points - 1) / opt.max_points;
        for (std::size_t i = 0; i < n; i += stride) {
            r.time.push_back(tv[i]);
            r.value.push_back(y[i]);
        }
        if (r.time.back() != tv.back()) {
            r.time.push_back(tv.back());
            r.value.push_back(y.back());
        }
    }
    return r;
}

} // namespace acstab::core
