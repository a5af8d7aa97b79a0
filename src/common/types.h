// Scalar type aliases and a few universal constants.
#ifndef ACSTAB_COMMON_TYPES_H
#define ACSTAB_COMMON_TYPES_H

#include <complex>

namespace acstab {

using real = double;
using cplx = std::complex<double>;

inline constexpr real pi = 3.14159265358979323846;
inline constexpr real two_pi = 2.0 * pi;

/// The default analysis band [Hz]: the CLI's --fstart/--fstop and the
/// band the sparse pole search covers when its caller names none.
inline constexpr real default_fstart_hz = 1e3;
inline constexpr real default_fstop_hz = 1e9;

/// Convert a frequency in Hz to angular frequency in rad/s.
[[nodiscard]] constexpr real to_omega(real hz) noexcept { return two_pi * hz; }

/// Convert an angular frequency in rad/s to a frequency in Hz.
[[nodiscard]] constexpr real to_hertz(real omega) noexcept { return omega / two_pi; }

} // namespace acstab

#endif // ACSTAB_COMMON_TYPES_H
