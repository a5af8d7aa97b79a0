// The Newton loop of every nonlinear solve (DC operating-point rungs and
// transient steps) and the shared-symbolic linear solver it runs on.
//
// newton_iterate is the one Newton–Raphson loop in spice/. The caller
// supplies the stamp pass (stamp_dc or stamp_tran, plus gshunt); the loop
// solves, rejects non-finite solutions, applies the SPICE3 convergence
// rules (Nagel 1975; Quarles 1989) and reports how it ended:
//   * an iteration whose stamp pass engaged a device limiter (pnjlim,
//     counted through system_builder::note_limited — SPICE's CKTnoncon)
//     never counts as converged;
//   * an optional step limit clamps each node voltage's update on its
//     own; branch currents are never limited;
//   * an optional polish takes unlimited steps after the tolerance test
//     passes until the update is at roundoff, so the returned point no
//     longer depends on the path Newton took.
//
// newton_solver: the stamp pattern is fixed across Newton iterations and
// timesteps — device topology never changes mid-run, only conductance and
// equivalent-current values do — so the sweep engine's central trick
// applies: run the (AMD-ordered) symbolic analysis ONCE and refactor
// numerically in place for every Newton solve. Devices still stamp
// through the familiar system_builder; instead of compressing a fresh CSC
// matrix and re-running the symbolic analysis per solve, the k-th add()
// of a stamp pass deposits into a recorded CSC slot (the slot map is
// built from the first pass's (row, col) entry sequence, sorted exactly
// like the csc_matrix triplet constructor).
//
// The pattern is *observed*, never assumed: every stamp pass is verified
// against the recorded (row, col) sequence in the same O(nnz) pass that
// deposits it, because triplet_matrix::add drops exact-zero values — a
// device conductance crossing zero (a MOSFET entering cutoff, a junction
// with vanishing gm) or a DC rung adding gshunt changes the stamp
// sequence even though the topology did not. Any mismatch is a
// pattern-breaking event: the CSC pattern, slot map and symbolic
// factorization are rebuilt and the run continues.
//
// In the steady state a Newton iteration allocates nothing: the stamp
// pass refills the builder's kept capacity, the numeric refactorization
// reuses its factor storage, and the solution lands in the solver's
// candidate buffer, which newton_iterate swaps with the iterate.
//
// Numeric safety is numeric_lu::factor's guard, the one every reused
// pivot order goes through: a zero pivot, or element growth confirmed by
// its all-ones probe, re-pivots from the current values before the step
// is declared singular. An order built fresh for a new stamp pattern
// chose its pivots from those very values and is not probed.
#ifndef ACSTAB_SPICE_NEWTON_SOLVER_H
#define ACSTAB_SPICE_NEWTON_SOLVER_H

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "numeric/sparse_factor.h"
#include "numeric/sparse_matrix.h"
#include "spice/device.h"
#include "spice/mna.h"

namespace acstab::spice {

/// Counters for --solver-stats and the equivalence/regression tests.
struct newton_solver_stats {
    std::size_t solves = 0;           ///< Newton solves served
    std::size_t symbolic_builds = 0;  ///< symbolic analyses run (1 in the steady state)
    std::size_t pattern_rebuilds = 0; ///< stamp-sequence changes observed
    std::size_t guard_probes = 0;     ///< growth witness tripped, factors probed
    std::size_t guard_rebuilds = 0;   ///< stale pivots / zero pivots that re-pivoted
};

/// The shared-symbolic solver. Its symbolic analysis runs the default
/// approximate-minimum-degree ordering and its numeric refactorization
/// the blocked/supernodal path.
class newton_solver {
public:
    explicit newton_solver(std::size_t n);

    /// Builder for the next stamp pass, with matrix, RHS and limiter
    /// count cleared. The triplet capacity and the CSC pattern behind it
    /// are reused.
    [[nodiscard]] system_builder<real>& begin_stamp();

    /// Deposit the stamped values into the fixed CSC pattern, refactor
    /// under the held pivot order (numeric_lu::factor) and solve for the
    /// stamped RHS into x, resized to the system size (no allocation once
    /// x has that capacity). Throws numeric_error, x untouched, when the
    /// system is singular even under a fresh pivot order.
    void solve(std::vector<real>& x);

    /// The Newton loop's candidate buffer: newton_iterate solves into it
    /// and swaps it with the iterate, so neither reallocates.
    [[nodiscard]] std::vector<real>& candidate() noexcept { return candidate_; }

    [[nodiscard]] const newton_solver_stats& stats() const noexcept { return stats_; }

private:
    /// Deposit the triplet values into the CSC value array through the
    /// slot map while checking the stamp sequence against the recorded
    /// one; false (values undefined) at the first mismatch.
    [[nodiscard]] bool deposit();
    /// Rebuild CSC pattern + slot map from the current triplet entries,
    /// then run a fresh symbolic analysis on them and refactor.
    void rebuild_pattern();

    std::size_t n_;
    system_builder<real> builder_;

    /// One recorded stamp: its coordinates and its CSC value slot.
    struct recorded_stamp {
        std::size_t row;
        std::size_t col;
        std::size_t slot;
    };

    // Fixed CSC pattern and the stamp-sequence slot map over it.
    bool has_pattern_ = false;
    numeric::csc_matrix<real> csc_;
    std::vector<recorded_stamp> recorded_; ///< triplet entry k -> coordinates, slot

    std::unique_ptr<numeric::numeric_lu<real>> num_;
    std::vector<real> candidate_;

    newton_solver_stats stats_;
};

/// Convergence rules of one Newton solve.
struct newton_rules {
    int max_iterations = 200;
    real reltol = 1e-3;
    real vntol = 1e-6;  ///< absolute floor for node voltages [V]
    real abstol = 1e-12; ///< absolute floor for branch currents [A]
    /// Largest update of each node voltage per iteration [V]; 0 leaves
    /// updates unlimited. Branch currents are never limited.
    real max_step = 0.0;
    /// Unlimited steps taken after the tolerance test passes, until the
    /// update is at roundoff (0 returns the first point that passes).
    int max_polish = 0;
};

/// How one Newton solve ended.
struct newton_outcome {
    bool converged = false;
    int iterations = 0;      ///< including polish steps
    real worst_delta = 0.0;  ///< largest unknown update of the last iteration
    bool singular = false;   ///< the linearized system could not be factored
    bool non_finite = false; ///< the solve returned a non-finite value
};

/// Stamps the linearization at candidate x into the builder: a
/// non-owning reference to the caller's callable, which must outlive the
/// newton_iterate call it is passed to. Unlike a std::function, wrapping
/// a lambda with several captures never allocates.
class stamp_pass {
public:
    template <class F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, stamp_pass>
                 && std::is_invocable_v<const F&, const std::vector<real>&, system_builder<real>&>)
    stamp_pass(const F& f) noexcept // implicit: newton_iterate callers pass a lambda
        : fn_(&f), call_([](const void* fn, const std::vector<real>& x, system_builder<real>& b) {
              (*static_cast<const F*>(fn))(x, b);
          })
    {
    }

    void operator()(const std::vector<real>& x, system_builder<real>& b) const { call_(fn_, x, b); }

private:
    const void* fn_;
    void (*call_)(const void*, const std::vector<real>&, system_builder<real>&);
};

/// Newton-iterate x in place from its current value. `nodes` is the
/// number of leading node-voltage unknowns; the rest are branch currents.
/// `shared` selects the shared-symbolic solver; null runs the one-shot
/// solve_system path with `oneshot` (the test oracle). Both run the
/// identical iteration — only the linear-solve plumbing differs. Never
/// throws for a singular or non-finite system: the outcome says so and
/// the caller's ladder reacts. On the shared path x trades buffers with
/// the solver's candidate() instead of being reallocated.
[[nodiscard]] newton_outcome newton_iterate(std::vector<real>& x, std::size_t nodes,
                                            const newton_rules& rules, stamp_pass stamp,
                                            newton_solver* shared, solver_kind oneshot);

/// Node-to-ground shunt `g` on each of the first `nodes` unknowns; 0
/// stamps nothing.
void stamp_gshunt(std::size_t nodes, real g, system_builder<real>& b);

/// One ladder rung's verdict: what the Newton loop did where it gave up.
[[nodiscard]] std::string describe_outcome(const newton_outcome& out);

/// Append one attempted-rung clause to the ladder diagnostic that a
/// final convergence_error carries.
void log_rung(std::string& ladder, const std::string& clause);

/// Shortest round-trip number text for the non-convergence ladder
/// diagnostics (std::to_chars: locale-independent, unlike %g).
[[nodiscard]] std::string format_value(real v);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_NEWTON_SOLVER_H
