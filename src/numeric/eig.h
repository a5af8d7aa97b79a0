// Eigenvalues of a general real matrix.
//
// Pipeline: diagonal balancing (EISPACK balanc) -> Householder reduction to
// upper Hessenberg form -> Francis implicit double-shift QR with deflation.
// Eigenvalues only (no vectors) — that is all pole/zero analysis needs.
#ifndef ACSTAB_NUMERIC_EIG_H
#define ACSTAB_NUMERIC_EIG_H

#include <vector>

#include "common/types.h"
#include "numeric/dense_matrix.h"

namespace acstab::numeric {

/// In-place similarity scaling that reduces the matrix norm; eigenvalues
/// are preserved. Dramatically improves QR accuracy on circuit matrices
/// whose entries span many decades.
void balance(dense_matrix<real>& a);

/// In-place Householder reduction to upper Hessenberg form (entries below
/// the first subdiagonal are zeroed; eigenvalues are preserved).
void hessenberg(dense_matrix<real>& a);

/// Eigenvalues of an upper Hessenberg matrix by Francis double-shift QR.
/// The matrix is destroyed. Throws numeric_error if an eigenvalue fails to
/// converge within the iteration budget.
[[nodiscard]] std::vector<cplx> hessenberg_eigenvalues(dense_matrix<real>& h);

/// Eigenvalues of a general real square matrix (balances + reduces + QR).
[[nodiscard]] std::vector<cplx> eigenvalues(dense_matrix<real> a);

/// Eigenvalue candidates of a complex square matrix M = A + jB: the
/// spectrum of its real embedding [[A, -B], [B, A]], which is eig(M)
/// together with its conjugate mirror. Callers keep the genuine half
/// with a residual check of their own.
[[nodiscard]] std::vector<cplx> embedded_eigenvalues(const dense_matrix<cplx>& m);

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_EIG_H
