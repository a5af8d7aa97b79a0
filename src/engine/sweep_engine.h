// The unified small-signal sweep engine.
//
// One executor behind every frequency-domain analysis (ac, stability
// single-node and all-nodes, loop gain, in-tool parameter sweeps):
//
//   * the frequency grid is partitioned into contiguous chunks dispatched
//     on the shared thread_pool (deterministic partition for a given
//     thread count, so results are reproducible run to run);
//   * the symbolic LU (pivot order, L/U patterns) is computed ONCE per
//     snapshot at the grid's middle frequency and shared read-only by all
//     workers; per frequency each worker assembles the snapshot into its
//     CSC workspace and refactors numerically in place through
//     numeric_lu::factor, whose guard re-pivots locally when the reused
//     order degrades (or hits an exact zero pivot);
//   * right-hand sides are back-solved in batches: one traversal of L and
//     one of U per batch of up to 32 columns, with zero heap allocations
//     in the steady-state loop — the paper's one-stimulus-per-node sweep
//     becomes one refactorization plus one batched back-solve per
//     frequency.
//
// for_each() exposes the same pool for coarse-grained parameter-point
// dispatch (corner/TEMP sweeps), with results slotted by index so
// ordering stays deterministic regardless of scheduling.
#ifndef ACSTAB_ENGINE_SWEEP_ENGINE_H
#define ACSTAB_ENGINE_SWEEP_ENGINE_H

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "engine/linearized_snapshot.h"
#include "numeric/sparse_factor.h"
#include "spice/mna.h"

namespace acstab::engine {

/// Sparse-solver tuning shared by every frequency-domain analysis (each
/// carries one in its engine::sweep_config). None of the switches
/// changes answers beyond rounding: the non-default settings are the
/// oracles of the equivalence tests and the solver benches, and only C++
/// callers can set them.
struct solver_tuning {
    /// Fill-reducing column pre-ordering of the shared symbolic LU.
    /// Approximate minimum degree by default, with an ordering cost that
    /// stays flat to hundreds of thousands of nodes; `none` (natural
    /// order) is the fill baseline. The ordering never changes answers,
    /// only speed.
    numeric::column_ordering ordering = numeric::column_ordering::amd_approx;
    /// Vectorize the batched back-solve across the contiguous RHS block
    /// (numeric_lu's split real/imag SIMD kernel). Deterministic for a
    /// given batch shape, so thread count still never changes results;
    /// scalar and SIMD answers agree to rounding, not bit-for-bit.
    bool simd = true;
    /// Supernodal/blocked numeric path: refactorization runs the blocked
    /// elimination over the symbolic supernode partition and the batched
    /// back-solve walks dense panels (numeric_lu::set_supernodal). ON by
    /// default — it is a pure speed knob; blocked and column answers
    /// agree to rounding (CI-guarded at 1e-12) exactly like the SIMD
    /// kernel. The column path is the equivalence oracle.
    bool supernodal = true;
};

struct sweep_engine_options {
    /// Worker threads (1 = serial on the calling thread, 0 = all hardware
    /// threads).
    std::size_t threads = 1;
    spice::solver_kind solver = spice::solver_kind::sparse;
    /// Angular frequency at which the shared symbolic factorization is
    /// seeded. 0 (the default) uses the middle of each run's grid; the
    /// adaptive driver pins it to the band's midpoint so its many small
    /// refinement batches all hit the snapshot's cached symbolic object
    /// instead of re-running the symbolic analysis per batch.
    real symbolic_omega_ref = 0.0;
    /// Ordering / kernel tuning (see solver_tuning).
    solver_tuning tuning;
};

class sweep_engine {
public:
    explicit sweep_engine(sweep_engine_options opt = {});

    [[nodiscard]] const sweep_engine_options& options() const noexcept { return opt_; }

    /// Threads this engine will actually use.
    [[nodiscard]] std::size_t resolved_threads() const noexcept;

    /// Called once per (frequency index, rhs index) pair with the solved
    /// unknown vector. May be invoked concurrently from pool workers, but
    /// each (fi, ri) slot exactly once — writing disjoint output slots
    /// needs no locking. The span borrows a worker buffer that is only
    /// valid for the duration of the call: copy out what you keep.
    using sink = std::function<void(std::size_t fi, std::size_t ri, std::span<const cplx> sol)>;

    /// Solve Y(j 2 pi f) x = rhs for every sweep frequency and every
    /// right-hand side in the batch.
    void run(const linearized_snapshot& snap, const std::vector<real>& freqs_hz,
             const std::vector<std::vector<cplx>>& rhs_batch, const sink& out) const;

    /// A single-entry right-hand side: `value` injected at one unknown
    /// (the stability sweeps' unit-current stimuli). Workers stage these
    /// into reused block columns — updated by clearing only the previously
    /// set index — so a batch of N injections costs O(n) memory per
    /// 32-column block and O(1) per-solve setup instead of the O(N * n)
    /// of dense rhs vectors.
    struct injection {
        std::size_t index = 0;
        cplx value{1.0, 0.0};
    };

    /// run() with one sparse injection per right-hand side.
    void run_injections(const linearized_snapshot& snap, const std::vector<real>& freqs_hz,
                        const std::vector<injection>& injections, const sink& out) const;

    /// Dispatch fn(0..count-1) on the shared pool (at most resolved_threads
    /// in flight). Used for parameter-point sweeps; fn must be thread-safe.
    void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

private:
    sweep_engine_options opt_;
};

} // namespace acstab::engine

#endif // ACSTAB_ENGINE_SWEEP_ENGINE_H
