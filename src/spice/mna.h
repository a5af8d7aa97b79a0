// Solve dispatch for assembled MNA systems: dense reference LU or sparse
// Gilbert–Peierls (the default). Shared by every analysis.
//
// These one-shot helpers compress and factor from scratch per call. Loops
// that solve the same pattern repeatedly should not use them: frequency
// sweeps go through engine::sweep_engine and DC and transient Newton solves
// through spice::newton_solver, both of which share one symbolic
// factorization and refactor numerically in place.
#ifndef ACSTAB_SPICE_MNA_H
#define ACSTAB_SPICE_MNA_H

#include <optional>
#include <vector>

#include "numeric/lu.h"
#include "numeric/sparse_lu.h"
#include "spice/device.h"

namespace acstab::spice {

enum class solver_kind { dense, sparse };

/// A factored MNA matrix reusable across many right-hand sides. The
/// all-nodes sweep itself runs through engine::sweep_engine; this is the
/// one-shot form that the re-stamp reference paths of the tests and the
/// ablation bench factor once per frequency and back-solve per node.
template <class T>
class factored_system {
public:
    factored_system(const system_builder<T>& b, solver_kind kind)
    {
        if (kind == solver_kind::dense)
            dense_.emplace(b.matrix().to_dense());
        else
            sparse_.emplace(numeric::csc_matrix<T>(b.matrix()));
    }

    [[nodiscard]] std::vector<T> solve(const std::vector<T>& rhs) const
    {
        if (dense_)
            return dense_->solve(rhs);
        return sparse_->solve(rhs);
    }

private:
    std::optional<numeric::lu_decomposition<T>> dense_;
    std::optional<numeric::sparse_lu<T>> sparse_;
};

/// Factor the builder's matrix and solve against its right-hand side.
/// Throws numeric_error on singular systems.
template <class T>
[[nodiscard]] std::vector<T> solve_system(const system_builder<T>& b, solver_kind kind)
{
    return factored_system<T>(b, kind).solve(b.rhs());
}

} // namespace acstab::spice

#endif // ACSTAB_SPICE_MNA_H
