#include "spice/devices/diode.h"

#include "spice/devices/junction.h"

namespace acstab::spice {

diode::diode(std::string name, node_id anode, node_id cathode, diode_model model)
    : device(std::move(name), {anode, cathode}), model_(model)
{
}

void diode::dc_begin()
{
    v_limit_state_ = 0.0;
}

void diode::stamp_dc(const std::vector<real>& x, const stamp_params& p, system_builder<real>& b)
{
    const real n_vt = model_.n * thermal_voltage(model_.temp);
    const real vcrit = junction_vcrit(model_.is, n_vt);
    const real v_in = unknown_voltage(x, nodes()[0], nodes()[1]);
    const real vd = pnjlim(v_in, v_limit_state_, n_vt, vcrit);
    if (vd != v_in)
        b.note_limited();
    v_limit_state_ = vd;

    const junction_current jc = junction_exp(vd, model_.is, n_vt);
    const real g = jc.g + p.gmin;
    const real i = jc.i + p.gmin * vd;
    // Linearize i(v) about vd: matrix gets g, RHS gets -(i - g*vd).
    b.conductance(nodes()[0], nodes()[1], g);
    const real ieq = i - g * vd;
    b.rhs_add(nodes()[0], -ieq);
    b.rhs_add(nodes()[1], ieq);
}

void diode::stamp_ac(const std::vector<real>& op, const ac_params& p, system_builder<cplx>& b) const
{
    const real vd = unknown_voltage(op, nodes()[0], nodes()[1]);
    const real g = conductance_at(vd) + p.gmin;
    const real c = capacitance_at(vd);
    b.conductance(nodes()[0], nodes()[1], cplx{g, p.omega * c});
}

void diode::tran_begin(const std::vector<real>& op)
{
    v_prev_ = unknown_voltage(op, nodes()[0], nodes()[1]);
    icap_prev_ = 0.0;
    v_limit_state_ = v_prev_;
}

void diode::stamp_tran(const std::vector<real>& x, const tran_params& p, system_builder<real>& b)
{
    stamp_dc(x, p.dc, b);

    // Companion model of the (nonlinear) junction capacitance evaluated at
    // the limited candidate voltage stored by stamp_dc.
    const real vd = v_limit_state_;
    const real c = capacitance_at(vd);
    if (c <= 0.0)
        return;
    real geq = 0.0;
    real ieq = 0.0;
    if (p.use_be) {
        geq = c / p.dt;
        ieq = geq * v_prev_;
    } else {
        geq = 2.0 * c / p.dt;
        ieq = geq * v_prev_ + icap_prev_;
    }
    b.conductance(nodes()[0], nodes()[1], geq);
    b.rhs_add(nodes()[0], ieq);
    b.rhs_add(nodes()[1], -ieq);
}

void diode::tran_accept(const std::vector<real>& x, const tran_params& p)
{
    const real v_new = unknown_voltage(x, nodes()[0], nodes()[1]);
    const real c = capacitance_at(v_new);
    if (c > 0.0 && p.dt > 0.0) {
        if (p.use_be) {
            icap_prev_ = c / p.dt * (v_new - v_prev_);
        } else {
            const real geq = 2.0 * c / p.dt;
            icap_prev_ = geq * (v_new - v_prev_) - icap_prev_;
        }
    } else {
        icap_prev_ = 0.0;
    }
    v_prev_ = v_new;
}

real diode::conductance_at(real v) const noexcept
{
    const real n_vt = model_.n * thermal_voltage(model_.temp);
    return junction_exp(v, model_.is, n_vt).g;
}

real diode::capacitance_at(real v) const noexcept
{
    const real cdep = junction_capacitance(v, model_.cj0, model_.vj, model_.m, model_.fc);
    const real cdiff = model_.tt * conductance_at(v);
    return cdep + cdiff;
}

} // namespace acstab::spice
