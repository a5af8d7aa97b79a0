// Shared pn-junction helpers: Newton step limiting (SPICE3 pnjlim) and
// depletion capacitance with the standard forward-bias linearization.
#ifndef ACSTAB_SPICE_DEVICES_JUNCTION_H
#define ACSTAB_SPICE_DEVICES_JUNCTION_H

#include <cmath>

#include "common/types.h"

namespace acstab::spice {

/// Thermal voltage kT/q at a temperature in Celsius.
[[nodiscard]] inline real thermal_voltage(real temp_celsius = 27.0) noexcept
{
    constexpr real k_over_q = 8.617333262e-5; // V/K
    return k_over_q * (temp_celsius + 273.15);
}

/// Critical voltage above which junction limiting engages.
[[nodiscard]] inline real junction_vcrit(real sat_current, real n_vt) noexcept
{
    return n_vt * std::log(n_vt / (1.4142135623730951 * sat_current));
}

/// SPICE3 pnjlim: clamp the Newton update of a junction voltage so the
/// exponential cannot overflow or oscillate. A result other than v_new
/// means the limiter engaged; the device reports that through
/// system_builder::note_limited.
[[nodiscard]] inline real pnjlim(real v_new, real v_old, real n_vt, real vcrit) noexcept
{
    if (v_new > vcrit && std::fabs(v_new - v_old) > 2.0 * n_vt) {
        if (v_old > 0.0) {
            const real arg = 1.0 + (v_new - v_old) / n_vt;
            if (arg > 0.0)
                return v_old + n_vt * std::log(arg);
            return vcrit;
        }
        return n_vt * std::log(v_new / n_vt);
    }
    return v_new;
}

/// Junction (depletion) capacitance cj0/(1 - v/vj)^m, linearized above
/// fc*vj the way Berkeley SPICE does to avoid the singularity at v = vj.
[[nodiscard]] inline real junction_capacitance(real v, real cj0, real vj, real m,
                                               real fc = 0.5) noexcept
{
    if (cj0 <= 0.0)
        return 0.0;
    const real fcv = fc * vj;
    if (v < fcv)
        return cj0 / std::pow(1.0 - v / vj, m);
    const real f2 = std::pow(1.0 - fc, -m);
    return cj0 * f2 * (1.0 + m * (v - fcv) / (vj * (1.0 - fc)));
}

/// Saturation-current exponential with linear continuation above the
/// overflow guard, returning both current and conductance.
struct junction_current {
    real i = 0.0;
    real g = 0.0;
};

[[nodiscard]] inline junction_current junction_exp(real v, real isat, real n_vt) noexcept
{
    constexpr real max_arg = 80.0; // exp(80) ~ 5.5e34, still finite in double
    const real arg = v / n_vt;
    junction_current out;
    if (arg > max_arg) {
        const real e = std::exp(max_arg);
        out.g = isat * e / n_vt;
        out.i = isat * (e - 1.0) + out.g * (v - max_arg * n_vt);
    } else if (arg < -max_arg) {
        out.i = -isat;
        out.g = 0.0;
    } else {
        const real e = std::exp(arg);
        out.i = isat * (e - 1.0);
        out.g = isat * e / n_vt;
    }
    return out;
}

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_JUNCTION_H
