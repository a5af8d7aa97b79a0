// Shared-symbolic linear solver for the transient Newton loop.
//
// The companion-model stamp pattern is fixed across timesteps and Newton
// iterations — device topology never changes mid-run, only conductance
// and equivalent-current values do — so the sweep engine's central trick
// applies to the time domain: run the (AMD-ordered) symbolic analysis
// ONCE and refactor numerically in place for every Newton solve. Devices
// still stamp through the familiar system_builder; instead of
// compressing a fresh CSC matrix and re-running the symbolic analysis
// per solve, the k-th add() of a stamp pass deposits into a recorded CSC
// slot (the slot map is built from the first pass's (row, col) entry
// sequence, sorted exactly like the csc_matrix triplet constructor).
//
// The pattern is *observed*, never assumed: every stamp pass is verified
// against the recorded (row, col) sequence in O(nnz), because
// triplet_matrix::add drops exact-zero values — a device conductance
// crossing zero (a MOSFET entering cutoff, a junction with vanishing gm)
// changes the stamp sequence even though the topology did not. Any
// mismatch is a pattern-breaking event: the CSC pattern, slot map and
// symbolic factorization are rebuilt and the run continues.
//
// Numeric safety reuses the PR 2 two-tier guard. The refactorization's
// element growth is a free witness; when it exceeds growth_limit a
// single SpMV residual probe checks the solution against the assembled
// matrix, and a failed probe re-pivots (fresh symbolic analysis on the
// current values) and re-solves. A zero pivot during refactorization
// triggers the same re-pivot before the step is declared singular.
#ifndef ACSTAB_SPICE_TRAN_SOLVER_H
#define ACSTAB_SPICE_TRAN_SOLVER_H

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/sparse_factor.h"
#include "numeric/sparse_matrix.h"
#include "spice/device.h"

namespace acstab::spice {

/// Guard thresholds of the shared path. The symbolic analysis always
/// runs the default approximate-minimum-degree ordering and the numeric
/// refactorization the blocked/supernodal path.
struct tran_solver_options {
    /// Threshold-pivoting tolerance of the symbolic analysis.
    double pivot_tol = 0.1;
    /// Element growth above which the residual probe runs (PR 2 witness).
    real growth_limit = 1e4;
    /// Relative residual above which the reused pivot order is declared
    /// stale and the symbolic factorization is rebuilt.
    real residual_tol = 1e-10;
};

/// Counters for --solver-stats and the equivalence/regression tests.
struct tran_solver_stats {
    std::size_t solves = 0;           ///< Newton solves served
    std::size_t symbolic_builds = 0;  ///< symbolic analyses run (1 in the steady state)
    std::size_t pattern_rebuilds = 0; ///< stamp-sequence changes observed
    std::size_t guard_probes = 0;     ///< growth witness tripped, residual probed
    std::size_t guard_rebuilds = 0;   ///< stale pivots / zero pivots that re-pivoted
};

class tran_solver {
public:
    explicit tran_solver(std::size_t n, const tran_solver_options& opt = {});

    /// Builder for the next stamp pass, with matrix and RHS cleared. The
    /// triplet capacity and the CSC pattern behind it are reused.
    [[nodiscard]] system_builder<real>& begin_stamp();

    /// Deposit the stamped values into the fixed CSC pattern, refactor
    /// against the shared symbolic object and solve for the stamped RHS.
    /// Throws numeric_error when the system is singular even under a
    /// fresh pivot order.
    [[nodiscard]] std::vector<real> solve();

    [[nodiscard]] const tran_solver_stats& stats() const noexcept { return stats_; }

private:
    /// True when the current stamp sequence matches the recorded one.
    [[nodiscard]] bool pattern_matches() const noexcept;
    /// Rebuild CSC pattern + slot map from the current triplet entries,
    /// then re-run the symbolic analysis.
    void rebuild_pattern();
    /// Re-run the symbolic analysis on the current CSC values (fresh
    /// pivot order) and refactor.
    void rebuild_symbolic();
    /// Scatter triplet values into the CSC value array via the slot map.
    void deposit();
    /// Relative residual ||Ax - b||_inf / ||b||_inf of a candidate x.
    [[nodiscard]] real residual_rel(const std::vector<real>& x);

    std::size_t n_;
    tran_solver_options opt_;
    system_builder<real> builder_;

    // Fixed CSC pattern and the stamp-sequence slot map over it.
    bool has_pattern_ = false;
    numeric::csc_matrix<real> csc_;
    std::vector<std::size_t> slot_;      ///< triplet entry k -> CSC value slot
    std::vector<std::size_t> entry_row_; ///< recorded stamp sequence
    std::vector<std::size_t> entry_col_;

    std::shared_ptr<const numeric::symbolic_lu<real>> sym_;
    std::unique_ptr<numeric::numeric_lu<real>> num_;
    std::vector<real> resid_; ///< SpMV probe scratch

    tran_solver_stats stats_;
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_TRAN_SOLVER_H
