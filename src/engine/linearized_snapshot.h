// Linearize-once small-signal snapshot of a circuit at its DC operating
// point.
//
// Every device's stamp_ac contribution is affine in the angular frequency
// (entries have the form a + j w c: conductances and transconductances in
// the real part, capacitive/inductive susceptances scaling with w), so
// the full complex MNA matrix decomposes exactly as
//
//   Y(j w) = G + w B        (B = jC, purely imaginary entries)
//
// with frequency-independent G and B. The snapshot captures both stamp
// sets once — by stamping the device list at w = 0 and w = 1 and
// differencing — onto one merged CSC sparsity pattern. Per-frequency
// assembly is then a single fused value fill (no device dispatch, no
// triplet sort), and the fixed pattern lets sparse_lu refactor without
// re-running its symbolic analysis.
//
// The AC stimulus right-hand side is frequency independent as well and is
// captured alongside (honoring exclusive_source / zero_all_sources).
#ifndef ACSTAB_ENGINE_LINEARIZED_SNAPSHOT_H
#define ACSTAB_ENGINE_LINEARIZED_SNAPSHOT_H

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "numeric/sparse_factor.h"
#include "numeric/sparse_matrix.h"
#include "spice/circuit.h"

namespace acstab::engine {

struct snapshot_options {
    real gmin = 1e-12;
    /// Node-to-ground shunt conductance regularizing floating nodes.
    real gshunt = 0.0;
    /// When non-null, AC stimuli of all other sources are zeroed.
    const spice::device* exclusive_source = nullptr;
    /// Zero every AC stimulus (callers injecting their own RHS).
    bool zero_all_sources = false;
    /// When set, only devices accepted by the predicate are stamped — the
    /// impedance-partition analysis linearizes one SIDE of a circuit at
    /// the full circuit's operating point this way. Excluded devices with
    /// branch-current unknowns get a unit diagonal on their branch rows
    /// (branch current forced to zero) so the filtered system keeps the
    /// full unknown set without going singular; nodes owned entirely by
    /// excluded devices are held up by gshunt.
    std::function<bool(const spice::device&)> device_filter;
};

class linearized_snapshot {
public:
    /// Linearize all devices of a finalized circuit about the operating
    /// point `op` (from dc_operating_point). The circuit is not retained;
    /// the snapshot stays valid across later circuit edits.
    linearized_snapshot(spice::circuit& c, const std::vector<real>& op,
                        const snapshot_options& opt = {});

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return row_idx_.size(); }

    /// The captured AC stimulus right-hand side (all zeros under
    /// zero_all_sources).
    [[nodiscard]] const std::vector<cplx>& stimulus_rhs() const noexcept { return rhs_; }

    /// A CSC matrix holding the shared pattern with uninitialized values;
    /// one per worker, refilled by assemble() at each frequency.
    [[nodiscard]] numeric::csc_matrix<cplx> make_workspace() const;

    /// Fill `out` (a workspace from make_workspace()) with Y(j w).
    void assemble(real omega, numeric::csc_matrix<cplx>& out) const;

    /// The real MNA pencil behind Y(j w) = G + j w C, both on the shared
    /// pattern (same col_ptr/row_idx, entry k of one aligned with entry k
    /// of the other): G from the w = 0 values, C from the per-rad/s part
    /// B = jC. Stamps have the form a + j w c, so nothing is dropped.
    /// Pole analysis reads its pencil here, so it solves exactly the
    /// matrices the sweeps factor.
    struct real_pencil {
        numeric::csc_matrix<real> g;
        numeric::csc_matrix<real> c;
    };
    [[nodiscard]] real_pencil pencil() const;

    /// The shared symbolic LU of this snapshot's pattern: pivot order and
    /// L/U structure chosen from the values at omega_ref under the given
    /// column ordering, computed lazily once and handed to every sweep
    /// worker (which then only refactors numerically). Thread-safe; the
    /// returned object is immutable. A request at a different omega_ref
    /// or ordering replaces the cached object.
    [[nodiscard]] std::shared_ptr<const numeric::symbolic_lu<cplx>>
    shared_symbolic(real omega_ref,
                    numeric::column_ordering ordering = numeric::column_ordering::amd_approx) const;

private:
    std::size_t n_ = 0;
    std::size_t nodes_ = 0;
    std::vector<std::size_t> col_ptr_;
    std::vector<std::size_t> row_idx_;
    std::vector<cplx> gvals_; ///< frequency-independent part (w = 0 stamps)
    std::vector<cplx> bvals_; ///< per-rad/s part: Y = gvals + omega * bvals
    std::vector<cplx> rhs_;

    mutable std::mutex symbolic_mutex_;
    mutable std::shared_ptr<const numeric::symbolic_lu<cplx>> symbolic_;
    mutable real symbolic_omega_ = -1.0;
    mutable numeric::column_ordering symbolic_ordering_ = numeric::column_ordering::amd_approx;
};

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_LINEARIZED_SNAPSHOT_H
