// Pole analysis of the linearized circuit from the MNA pencil (G, C):
// (G + sC) x = 0. Used as the ground truth the stability plot and the
// impedance criterion are validated against: a complex pole pair p gives
// a natural frequency |p|/2pi and damping -Re(p)/|p|.
//
// Both paths read G and C from one engine::linearized_snapshot (the w = 0
// stamps and the per-rad/s part, same gmin/gshunt), so they solve the
// same pencil:
//
//   * dense (below sparse_pole_min_unknowns unknowns): shift-invert
//     M = G^{-1} C and a dense eigen-solve, O(n^3) time and O(n^2)
//     memory. Every finite pole is s = -1/mu for a nonzero eigenvalue mu
//     of M. It returns EVERY finite pole and stays the test oracle.
//   * sparse (at and above the crossover): shift-invert Arnoldi on
//     (G + j w_k C)^{-1} C at shifts j w_k spread across the band
//     [fmin_hz, fmax_hz], two per decade, on the snapshot's shared
//     symbolic LU. Each shift costs one numeric refactorization and about
//     twenty sparse solves. A converged Ritz value mu gives the pole
//     p = j w_k - 1/mu, kept only if it passes a backward-error check on
//     the pencil itself; a target whose Ritz value shows but has not
//     converged is finished by inverse iteration on the pencil at its
//     estimate (one or two more factorizations). It returns every pole
//     whose natural frequency lies in the band and whose damping is
//     zeta <= 0.5, plus every right-half-plane pole in the band: exactly
//     the poles a stability verdict needs. Poles outside the band, a real
//     right-half-plane pole below fmin_hz included, are not promised.
//     Each complex pole comes with its conjugate; other converged poles
//     may also appear. The Krylov dimension is capped at n and breakdown
//     (an invariant subspace) ends the iteration early. The start vector
//     comes from a fixed-seed LCG, so the output is deterministic.
//     Limit: twenty vectors per shift resolve a handful of targets near
//     it; a band packed with modes (an LC ladder's modes bunching below
//     its cutoff) can hold more, and some of those are then missed. The
//     result says when that may have happened (pole_search_result).
#ifndef ACSTAB_ANALYSIS_POLE_ZERO_H
#define ACSTAB_ANALYSIS_POLE_ZERO_H

#include <cstddef>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/mna.h"

namespace acstab::analysis {

struct pole {
    cplx s;                ///< pole location [rad/s]
    real freq_hz = 0.0;    ///< |s| / 2 pi
    real zeta = 0.0;       ///< -Re(s)/|s| (1 for real poles)
    bool is_complex = false;
};

struct pole_zero_options {
    real gmin = 1e-12;
    real gshunt = 1e-9;
    /// Eigenvalues with |mu| below this (relative to the largest) are
    /// treated as poles at infinity and dropped (dense path).
    real mu_rel_floor = 1e-9;
    /// The band the sparse path searches [Hz]; the dense path returns
    /// every finite pole regardless.
    real fmin_hz = default_fstart_hz;
    real fmax_hz = default_fstop_hz;
};

/// Circuits with at least this many unknowns take the sparse path
/// (measured crossover: below it the dense eigen-solve is faster).
inline constexpr std::size_t sparse_pole_min_unknowns = 200;

/// Poles plus what the search could not vouch for. The dense path
/// returns every finite pole and leaves both counts zero.
struct pole_search_result {
    std::vector<pole> poles;
    bool sparse = false; ///< the sparse path ran: `poles` covers the band only
    /// Target estimates (in the band with zeta <= 0.5, or in the right
    /// half-plane, give or take their own error) that a Krylov basis
    /// showed but that neither it nor inverse iteration confirmed.
    std::size_t unconfirmed = 0;
    /// Shifts whose basis showed targets for at least half its vectors
    /// between the neighbouring shifts: a stretch that crowded can hold
    /// targets the basis never showed.
    std::size_t crowded_shifts = 0;

    /// No sign that a promised pole is missing.
    [[nodiscard]] bool complete() const noexcept
    {
        return unconfirmed == 0 && crowded_shifts == 0;
    }
};

/// Poles of the circuit linearized at the operating point: every finite
/// pole below the crossover, the band's near-axis and right-half-plane
/// poles above it (see the header comment). Throws analysis_error on a
/// non-finite operating point or an empty band.
[[nodiscard]] pole_search_result search_circuit_poles(spice::circuit& c,
                                                      const std::vector<real>& op,
                                                      const pole_zero_options& opt = {});

/// search_circuit_poles(c, op, opt).poles.
[[nodiscard]] std::vector<pole> circuit_poles(spice::circuit& c, const std::vector<real>& op,
                                              const pole_zero_options& opt = {});

/// The dense path at any size: every finite pole (the test oracle).
[[nodiscard]] std::vector<pole> dense_circuit_poles(spice::circuit& c,
                                                    const std::vector<real>& op,
                                                    const pole_zero_options& opt = {});

/// The sparse path at any size (the oracle tests call it below the
/// crossover too).
[[nodiscard]] pole_search_result sparse_circuit_poles(spice::circuit& c,
                                                      const std::vector<real>& op,
                                                      const pole_zero_options& opt = {});

/// Zeros of the driving-point impedance Z_nn at a named node: the natural
/// frequencies of the circuit with that node shorted to ground (classic
/// network-theory identity). Useful to judge whether a complex zero seen
/// in a stability plot belongs to the probed node. Always dense.
[[nodiscard]] std::vector<pole> impedance_zeros_at_node(spice::circuit& c,
                                                        const std::vector<real>& op,
                                                        const std::string& node,
                                                        const pole_zero_options& opt = {});

/// The sparse search's Gram-Schmidt kernels, written on the real and
/// imaginary parts of equal-length vectors: the projection
/// sum_k conj(v[k]) w[k], and the update w[k] -= d v[k]. Each rounds
/// exactly like the std::complex expression it replaces, operation for
/// operation, without std::complex's NaN-recovery branch, which acts only
/// on products whose parts are both NaN.
[[nodiscard]] cplx projection(const std::vector<cplx>& v, const std::vector<cplx>& w) noexcept;
void subtract_projection(cplx d, const std::vector<cplx>& v, std::vector<cplx>& w) noexcept;

/// True when the pole lies in the right half-plane, beyond a relative
/// 1e-6 margin that keeps rounding on a marginal pole from flipping a
/// stability verdict.
[[nodiscard]] bool is_right_half_plane(const pole& p) noexcept;

/// The dominant (least-damped) complex pole pair, if any: smallest zeta
/// among complex poles. Returns false when no complex pair exists.
[[nodiscard]] bool dominant_complex_pole(const std::vector<pole>& poles, pole& out);

/// Poles sorted by natural frequency, complex pairs reported once
/// (positive imaginary part representative).
[[nodiscard]] std::vector<pole> complex_pairs(const std::vector<pole>& poles);

} // namespace acstab::analysis

#endif // ACSTAB_ANALYSIS_POLE_ZERO_H
