#include "engine/sweep_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.h"
#include "engine/thread_pool.h"
#include "numeric/lu.h"
#include "numeric/sparse_factor.h"

namespace acstab::engine {

namespace {

    /// Per-worker solver state: a pattern workspace plus a numeric
    /// factorization refactored in place frequency to frequency against
    /// the snapshot's shared symbolic object. The steady-state
    /// factor/solve loop performs no heap allocations; only a re-pivot
    /// (stale shared order, see numeric_lu::factor) allocates, and only
    /// when it actually triggers.
    class chunk_solver {
    public:
        /// `shared` is the snapshot's symbolic object (null on the dense
        /// reference path).
        chunk_solver(const linearized_snapshot& snap, const sweep_engine_options& opt,
                     std::shared_ptr<const numeric::symbolic_lu<cplx>> shared)
            : snap_(snap), work_(snap.make_workspace())
        {
            if (opt.solver == spice::solver_kind::sparse) {
                num_.emplace(std::move(shared));
                num_->set_batch_kernel(opt.tuning.simd ? numeric::batch_kernel::simd
                                                       : numeric::batch_kernel::scalar);
                num_->set_supernodal(opt.tuning.supernodal);
            }
        }

        /// Factor Y(j w) under the guarded refactorization, so every
        /// right-hand side of the batch — not just the first — sees a
        /// validated factorization. Throws numeric_error only if the
        /// matrix is singular under every pivot order (matching the
        /// direct path).
        void factor(real omega)
        {
            snap_.assemble(omega, work_);
            if (num_)
                num_->factor(work_);
            else
                dense_.emplace(work_.to_dense());
        }

        /// Back-solve a batch of right-hand sides against the current
        /// factorization; x is column-major n*nrhs (see
        /// numeric_lu::solve_batch for the aliasing contract).
        void solve_batch(const cplx* const* b, std::size_t nrhs, cplx* x)
        {
            if (dense_) {
                // Reference path; allocation-freedom is not a goal here.
                const std::size_t n = snap_.size();
                for (std::size_t r = 0; r < nrhs; ++r) {
                    const std::vector<cplx> rhs(b[r], b[r] + n);
                    const std::vector<cplx> sol = dense_->solve(rhs);
                    std::copy(sol.begin(), sol.end(), x + r * n);
                }
                return;
            }
            num_->solve_batch(b, nrhs, x);
        }

    private:
        const linearized_snapshot& snap_;
        numeric::csc_matrix<cplx> work_;
        std::optional<numeric::numeric_lu<cplx>> num_;
        std::optional<numeric::lu_decomposition<cplx>> dense_;
    };

} // namespace

sweep_engine::sweep_engine(sweep_engine_options opt) : opt_(opt) {}

std::size_t sweep_engine::resolved_threads() const noexcept
{
    return opt_.threads == 0 ? thread_pool::hardware_threads() : opt_.threads;
}

namespace {

    constexpr std::size_t no_prev = std::numeric_limits<std::size_t>::max();

    /// Right-hand sides per batched back-solve: bounds the worker-local
    /// staging to O(rhs_block * n) while still amortizing each L/U
    /// traversal across the batch.
    constexpr std::size_t rhs_block = 32;

    /// Shared chunked sweep. bind_rhs(ri, slot, prev) returns a pointer to
    /// right-hand side ri, either borrowing caller storage directly or
    /// materializing into the worker's staging column `slot` (with `prev`
    /// as the slot's persistent sparse-update state). Right-hand sides are
    /// frequency independent, so a slot only changes when a different ri
    /// rotates into it. Templated on the binder so the per-RHS call
    /// inlines instead of going through a std::function.
    template <class BindRhs>
    void run_chunks(const linearized_snapshot& snap, const sweep_engine_options& opt,
                    std::size_t threads, const std::vector<real>& freqs_hz, std::size_t nrhs,
                    const BindRhs& bind_rhs, const sweep_engine::sink& out)
    {
        if (freqs_hz.empty())
            throw analysis_error("sweep engine: empty frequency list");
        for (const real f : freqs_hz)
            if (!(f > 0.0))
                throw analysis_error("sweep engine: frequencies must be positive");
        if (nrhs == 0)
            return;

        const std::size_t n = snap.size();
        const std::size_t nf = freqs_hz.size();
        const std::size_t block = std::min(rhs_block, nrhs);

        // One symbolic analysis for the whole sweep, computed (or fetched
        // from the snapshot's cache) on the calling thread before any
        // worker starts.
        std::shared_ptr<const numeric::symbolic_lu<cplx>> shared_sym;
        if (opt.solver == spice::solver_kind::sparse)
            shared_sym = snap.shared_symbolic(opt.symbolic_omega_ref > 0.0
                                                  ? opt.symbolic_omega_ref
                                                  : to_omega(freqs_hz[nf / 2]),
                                              opt.tuning.ordering);

        // Balanced contiguous partition: exactly `workers` chunks, sizes
        // differing by at most one (a ceil-sized chunk count would leave
        // part of the thread budget idle).
        const std::size_t workers = std::max<std::size_t>(1, std::min(threads, nf));
        const std::size_t base = nf / workers;
        const std::size_t rem = nf % workers;

        thread_pool::shared().parallel_for(workers, workers, [&](std::size_t w) {
            const std::size_t begin = w * base + std::min(w, rem);
            const std::size_t end = begin + base + (w < rem ? 1 : 0);
            chunk_solver solver(snap, opt, shared_sym);
            // All worker storage is allocated here, once; the frequency
            // loop below is allocation-free in steady state.
            std::vector<cplx> staging(block * n, cplx{});
            std::vector<std::size_t> prev(block, no_prev);
            std::vector<const cplx*> cols(block);
            std::vector<cplx> xbuf(block * n);
            for (std::size_t fi = begin; fi < end; ++fi) {
                solver.factor(to_omega(freqs_hz[fi]));
                for (std::size_t r0 = 0; r0 < nrhs; r0 += block) {
                    const std::size_t bn = std::min(block, nrhs - r0);
                    for (std::size_t j = 0; j < bn; ++j)
                        cols[j] = bind_rhs(r0 + j, staging.data() + j * n, prev[j]);
                    solver.solve_batch(cols.data(), bn, xbuf.data());
                    for (std::size_t j = 0; j < bn; ++j)
                        out(fi, r0 + j, std::span<const cplx>(xbuf.data() + j * n, n));
                }
            }
        });
    }

} // namespace

void sweep_engine::run(const linearized_snapshot& snap, const std::vector<real>& freqs_hz,
                       const std::vector<std::vector<cplx>>& rhs_batch, const sink& out) const
{
    for (const std::vector<cplx>& rhs : rhs_batch)
        if (rhs.size() != snap.size())
            throw analysis_error("sweep engine: right-hand side has wrong length");
    run_chunks(snap, opt_, resolved_threads(), freqs_hz, rhs_batch.size(),
               [&rhs_batch](std::size_t ri, cplx*, std::size_t&) -> const cplx* {
                   return rhs_batch[ri].data();
               },
               out);
}

void sweep_engine::run_injections(const linearized_snapshot& snap,
                                  const std::vector<real>& freqs_hz,
                                  const std::vector<injection>& injections,
                                  const sink& out) const
{
    for (const injection& inj : injections)
        if (inj.index >= snap.size())
            throw analysis_error("sweep engine: injection index out of range");
    run_chunks(snap, opt_, resolved_threads(), freqs_hz, injections.size(),
               [&injections](std::size_t ri, cplx* slot, std::size_t& prev) -> const cplx* {
                   // The slot column is all-zero except for the previously
                   // staged injection: clear just that index instead of an
                   // O(n) fill per (frequency x injection).
                   const injection& inj = injections[ri];
                   if (prev != no_prev)
                       slot[prev] = cplx{};
                   slot[inj.index] = inj.value;
                   prev = inj.index;
                   return slot;
               },
               out);
}

void sweep_engine::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const
{
    thread_pool::shared().parallel_for(count, std::max<std::size_t>(1, resolved_threads()), fn);
}

} // namespace acstab::engine
