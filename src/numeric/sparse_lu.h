// One-object facade over the symbolic/numeric sparse LU split
// (sparse_factor.h): factor-and-solve for call sites that solve one
// matrix once (spice::factored_system and solve_system, behind the
// one-shot Newton oracle and the re-stamp reference sweep). Loops that
// reuse a pivot order — the sweep engine, DC and transient Newton solves
// (spice::newton_solver) and the pole search — hold symbolic_lu +
// numeric_lu directly and refactor through numeric_lu::factor.
//
// Each column's sparse triangular solve only touches the symbolic reach
// set, so ladder-like circuit matrices factor in near-linear time. The
// dense lu.h path remains as the reference implementation (ablation A2
// compares the two).
#ifndef ACSTAB_NUMERIC_SPARSE_LU_H
#define ACSTAB_NUMERIC_SPARSE_LU_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"
#include "numeric/sparse_factor.h"
#include "numeric/sparse_matrix.h"

namespace acstab::numeric {

template <class T>
class sparse_lu {
public:
    /// The shared lu_options (the column ordering) plus the facade's own
    /// refactor switch — the slice the symbolic analysis consumes is
    /// forwarded verbatim, so the ordering enum is defined exactly once
    /// (in sparse_factor.h).
    struct options : lu_options {
        /// Allow refactor() calls for matrices with the same structure
        /// but different values. (The pattern is always symbolic since
        /// the split; the flag is kept as an API guard so accidental
        /// refactors of one-shot factorizations still throw.)
        bool prepare_refactor = false;
    };

    explicit sparse_lu(const csc_matrix<T>& a, options opt = {})
        : sym_(std::make_shared<const symbolic_lu<T>>(
              a, static_cast<const lu_options&>(opt), &seed_values_)),
          num_(sym_, std::move(seed_values_)), refactor_ready_(opt.prepare_refactor)
    {
    }

    [[nodiscard]] std::size_t size() const noexcept { return sym_->size(); }
    [[nodiscard]] std::size_t lower_nnz() const noexcept { return sym_->lower_nnz(); }
    [[nodiscard]] std::size_t upper_nnz() const noexcept { return sym_->upper_nnz(); }

    /// The immutable symbolic half, shareable with other numeric_lu
    /// instances (e.g. worker-local refactor loops).
    [[nodiscard]] const std::shared_ptr<const symbolic_lu<T>>& symbolic() const noexcept
    {
        return sym_;
    }

    /// Solve A x = b.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const { return num_.solve(b); }

    /// Recompute the numeric factorization for a matrix with the SAME
    /// sparsity pattern as the one originally factored, reusing the pivot
    /// order and the symbolic L/U structure (no search, no allocation).
    /// Requires options::prepare_refactor at construction. Throws
    /// numeric_error on an exactly-zero pivot; the values are then
    /// undefined and must be recomputed (another refactor, or a fresh
    /// factorization when the pivot order itself has gone stale).
    void refactor(const csc_matrix<T>& a)
    {
        if (!refactor_ready_)
            throw numeric_error("sparse_lu: refactor requires prepare_refactor");
        num_.refactor(a);
    }

private:
    /// Declared before sym_/num_: the symbolic analysis fills it and the
    /// numeric half adopts it (member initialization order is declaration
    /// order), so one-shot factorizations run the elimination only once.
    typename symbolic_lu<T>::factor_values seed_values_;
    std::shared_ptr<const symbolic_lu<T>> sym_;
    numeric_lu<T> num_;
    bool refactor_ready_ = false;
};

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_SPARSE_LU_H
