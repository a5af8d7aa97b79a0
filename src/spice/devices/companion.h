// Companion-model state for one (possibly nonlinear) capacitor branch used
// by the transient integrator: backward Euler on demand, trapezoidal
// otherwise. The capacitance value is re-evaluated by the owning device at
// each Newton iterate.
//
// Pattern contract: for fixed (c > 0, dt > 0) the matrix stamp hits the
// same coordinates every Newton iterate, which is what lets the shared
// Newton solver (spice/newton_solver.h) deposit into one fixed CSC
// pattern instead of compressing a fresh matrix per solve. A capacitance
// crossing zero changes the emitted stamp sequence; the solver detects
// that as a pattern-breaking event and re-runs the symbolic analysis.
#ifndef ACSTAB_SPICE_DEVICES_COMPANION_H
#define ACSTAB_SPICE_DEVICES_COMPANION_H

#include "spice/device.h"

namespace acstab::spice {

struct companion_cap {
    real v_prev = 0.0;
    real i_prev = 0.0;

    void begin(real v) noexcept
    {
        v_prev = v;
        i_prev = 0.0;
    }

    void stamp(system_builder<real>& b, node_id a, node_id k, real c,
               const tran_params& p) const
    {
        if (c <= 0.0 || p.dt <= 0.0)
            return;
        real geq = 0.0;
        real ieq = 0.0;
        if (p.use_be) {
            geq = c / p.dt;
            ieq = geq * v_prev;
        } else {
            geq = 2.0 * c / p.dt;
            ieq = geq * v_prev + i_prev;
        }
        b.conductance(a, k, geq);
        b.rhs_add(a, ieq);
        b.rhs_add(k, -ieq);
    }

    void accept(real v_new, real c, const tran_params& p) noexcept
    {
        if (c > 0.0 && p.dt > 0.0) {
            if (p.use_be)
                i_prev = c / p.dt * (v_new - v_prev);
            else
                i_prev = 2.0 * c / p.dt * (v_new - v_prev) - i_prev;
        } else {
            i_prev = 0.0;
        }
        v_prev = v_new;
    }
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_COMPANION_H
