#include "spice/devices/bjt.h"

#include <cmath>

#include "spice/devices/junction.h"

namespace acstab::spice {

bjt::bjt(std::string name, node_id collector, node_id base, node_id emitter, bjt_model model)
    : device(std::move(name), {collector, base, emitter}), model_(model),
      pol_(model.polarity == bjt_polarity::npn ? 1.0 : -1.0),
      vcrit_f_(junction_vcrit(model.is, model.nf * thermal_voltage(model.temp))),
      vcrit_r_(junction_vcrit(model.is, model.nr * thermal_voltage(model.temp)))
{
}

void bjt::dc_begin()
{
    vbe_state_ = 0.0;
    vbc_state_ = 0.0;
}

bjt::eval_result bjt::evaluate(real vbe, real vbc) const noexcept
{
    const real vt = thermal_voltage(model_.temp);
    const real nvt_f = model_.nf * vt;
    const real nvt_r = model_.nr * vt;

    const junction_current fwd = junction_exp(vbe, model_.is, nvt_f);
    const junction_current rev = junction_exp(vbc, model_.is, nvt_r);

    // Forward Early factor, clamped away from collapse.
    real kq = 1.0;
    real dkq_dvbc = 0.0;
    if (model_.vaf > 0.0) {
        kq = 1.0 - vbc / model_.vaf;
        dkq_dvbc = -1.0 / model_.vaf;
        if (kq < 0.05) {
            kq = 0.05;
            dkq_dvbc = 0.0;
        }
    }

    eval_result r;
    r.ic = kq * (fwd.i - rev.i) - rev.i / model_.br;
    r.ib = fwd.i / model_.bf + rev.i / model_.br;
    r.dic_dvbe = kq * fwd.g;
    r.dic_dvbc = dkq_dvbc * (fwd.i - rev.i) - kq * rev.g - rev.g / model_.br;
    r.dib_dvbe = fwd.g / model_.bf;
    r.dib_dvbc = rev.g / model_.br;
    r.cbe = junction_capacitance(vbe, model_.cje, model_.vje, model_.mje, model_.fc)
        + model_.tf * fwd.g;
    r.cbc = junction_capacitance(vbc, model_.cjc, model_.vjc, model_.mjc, model_.fc)
        + model_.tr * rev.g;
    return r;
}

bjt::eval_result bjt::stamp_linearized(const std::vector<real>& x, const stamp_params& p,
                                       system_builder<real>& b)
{
    const node_id nc = nodes()[0];
    const node_id nb = nodes()[1];
    const node_id ne = nodes()[2];

    const real vt = thermal_voltage(model_.temp);
    const real nvt_f = model_.nf * vt;
    const real nvt_r = model_.nr * vt;

    const real vbe_in = pol_ * unknown_voltage(x, nb, ne);
    const real vbc_in = pol_ * unknown_voltage(x, nb, nc);
    const real vbe = pnjlim(vbe_in, vbe_state_, nvt_f, vcrit_f_);
    const real vbc = pnjlim(vbc_in, vbc_state_, nvt_r, vcrit_r_);
    if (vbe != vbe_in || vbc != vbc_in)
        b.note_limited();
    vbe_state_ = vbe;
    vbc_state_ = vbc;

    const eval_result r = evaluate(vbe, vbc);

    // Terminal currents into C and B (actual orientation); E balances.
    // Internal voltages are pol * actual, currents pol * internal, so the
    // polarity cancels in every Jacobian entry but not in the currents.
    const real vb = nb >= 0 ? x[static_cast<std::size_t>(nb)] : 0.0;
    const real vc = nc >= 0 ? x[static_cast<std::size_t>(nc)] : 0.0;
    const real ve = ne >= 0 ? x[static_cast<std::size_t>(ne)] : 0.0;

    // Rows: Ic, Ib; columns: vb, vc, ve.
    const real jac[2][3] = {
        {r.dic_dvbe + r.dic_dvbc, -r.dic_dvbc, -r.dic_dvbe},
        {r.dib_dvbe + r.dib_dvbc, -r.dib_dvbc, -r.dib_dvbe},
    };
    const real cur[2] = {pol_ * r.ic, pol_ * r.ib};
    const node_id rows[2] = {nc, nb};
    const node_id cols[3] = {nb, nc, ne};
    const real volt[3] = {vb, vc, ve};

    real e_row[3] = {0.0, 0.0, 0.0};
    real e_cur = 0.0;
    for (int i = 0; i < 2; ++i) {
        real ieq = cur[i];
        for (int j = 0; j < 3; ++j) {
            b.add(rows[i], cols[j], jac[i][j]);
            ieq -= jac[i][j] * volt[j];
            e_row[j] -= jac[i][j];
        }
        b.rhs_add(rows[i], -ieq);
        e_cur -= cur[i];
    }
    real ieq_e = e_cur;
    for (int j = 0; j < 3; ++j) {
        b.add(ne, cols[j], e_row[j]);
        ieq_e -= e_row[j] * volt[j];
    }
    b.rhs_add(ne, -ieq_e);

    // Convergence shunts across both junctions.
    b.conductance(nb, ne, p.gmin);
    b.conductance(nb, nc, p.gmin);
    return r;
}

void bjt::stamp_dc(const std::vector<real>& x, const stamp_params& p, system_builder<real>& b)
{
    (void)stamp_linearized(x, p, b);
}

void bjt::stamp_ac(const std::vector<real>& op, const ac_params& p, system_builder<cplx>& b) const
{
    const node_id nc = nodes()[0];
    const node_id nb = nodes()[1];
    const node_id ne = nodes()[2];

    const real vbe = pol_ * unknown_voltage(op, nb, ne);
    const real vbc = pol_ * unknown_voltage(op, nb, nc);
    const eval_result r = evaluate(vbe, vbc);

    const real jac[2][3] = {
        {r.dic_dvbe + r.dic_dvbc, -r.dic_dvbc, -r.dic_dvbe},
        {r.dib_dvbe + r.dib_dvbc, -r.dib_dvbc, -r.dib_dvbe},
    };
    const node_id rows[2] = {nc, nb};
    const node_id cols[3] = {nb, nc, ne};
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 3; ++j) {
            b.add(rows[i], cols[j], cplx{jac[i][j], 0.0});
            b.add(ne, cols[j], cplx{-jac[i][j], 0.0});
        }

    b.conductance(nb, ne, cplx{p.gmin, p.omega * r.cbe});
    b.conductance(nb, nc, cplx{p.gmin, p.omega * r.cbc});
}

void bjt::tran_begin(const std::vector<real>& op)
{
    const node_id nc = nodes()[0];
    const node_id nb = nodes()[1];
    const node_id ne = nodes()[2];
    cap_be_.begin(unknown_voltage(op, nb, ne));
    cap_bc_.begin(unknown_voltage(op, nb, nc));
    vbe_state_ = pol_ * unknown_voltage(op, nb, ne);
    vbc_state_ = pol_ * unknown_voltage(op, nb, nc);
}

void bjt::stamp_tran(const std::vector<real>& x, const tran_params& p, system_builder<real>& b)
{
    // The junction capacitances at the limited voltages just linearized.
    const eval_result r = stamp_linearized(x, p.dc, b);
    cap_be_.stamp(b, nodes()[1], nodes()[2], r.cbe, p);
    cap_bc_.stamp(b, nodes()[1], nodes()[0], r.cbc, p);
}

void bjt::tran_accept(const std::vector<real>& x, const tran_params& p)
{
    const node_id nc = nodes()[0];
    const node_id nb = nodes()[1];
    const node_id ne = nodes()[2];
    const real vbe_int = pol_ * unknown_voltage(x, nb, ne);
    const real vbc_int = pol_ * unknown_voltage(x, nb, nc);
    const eval_result r = evaluate(vbe_int, vbc_int);
    cap_be_.accept(unknown_voltage(x, nb, ne), r.cbe, p);
    cap_bc_.accept(unknown_voltage(x, nb, nc), r.cbc, p);
}

bjt_small_signal bjt::small_signal(const std::vector<real>& op) const
{
    const node_id nc = nodes()[0];
    const node_id nb = nodes()[1];
    const node_id ne = nodes()[2];
    const real vbe = pol_ * unknown_voltage(op, nb, ne);
    const real vbc = pol_ * unknown_voltage(op, nb, nc);
    const eval_result r = evaluate(vbe, vbc);
    bjt_small_signal ss;
    ss.gm = r.dic_dvbe;
    ss.gpi = r.dib_dvbe;
    ss.gmu = r.dib_dvbc;
    ss.go = -r.dic_dvbc - r.dib_dvbc; // d(ic)/d(vce) at fixed vbe
    ss.cbe = r.cbe;
    ss.cbc = r.cbc;
    ss.ic = pol_ * r.ic;
    ss.ib = pol_ * r.ib;
    return ss;
}

} // namespace acstab::spice
