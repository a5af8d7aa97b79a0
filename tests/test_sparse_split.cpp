// The symbolic/numeric sparse-LU split behind the sweep engine:
// solve_batch must match repeated single solves bit for bit, a zero pivot
// under a reused pivot order must leave the shared symbolic object
// intact, and numeric_lu::factor must re-pivot a stale order (zero pivot,
// or growth confirmed by its probe) and keep the new one.
// Runs under the ASan/UBSan CI job like every other test.
#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "circuits/rlc.h"
#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "numeric/sparse_factor.h"
#include "numeric/sparse_lu.h"
#include "spice/dc_analysis.h"

namespace {

using namespace acstab;

// --- solve_batch vs repeated solve ------------------------------------------

TEST(sparse_split, solve_batch_matches_repeated_solve)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 32);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(2.5e6), work);
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
    numeric::numeric_lu<cplx> lu(sym);
    lu.refactor(work);

    // A mixed batch: sparse unit injections plus one dense column.
    std::vector<std::vector<cplx>> batch;
    for (const std::size_t k : {std::size_t{0}, std::size_t{5}, n - 1}) {
        std::vector<cplx> rhs(n, cplx{});
        rhs[k] = cplx{1.0, 0.0};
        batch.push_back(std::move(rhs));
    }
    std::vector<cplx> dense(n);
    for (std::size_t i = 0; i < n; ++i)
        dense[i] = cplx{0.25 + static_cast<real>(i), -0.5 * static_cast<real>(i)};
    batch.push_back(std::move(dense));

    std::vector<const cplx*> cols;
    for (const auto& rhs : batch)
        cols.push_back(rhs.data());
    std::vector<cplx> x(n * batch.size());
    lu.solve_batch(cols.data(), batch.size(), x.data());

    for (std::size_t r = 0; r < batch.size(); ++r) {
        const std::vector<cplx> single = lu.solve(batch[r]);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(x[r * n + i], single[i]) << "rhs " << r << " entry " << i; // bit-identical
    }
}

TEST(sparse_split, solve_in_place_matches_allocating_solve)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 12);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e6), work);
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work);
    numeric::numeric_lu<cplx> lu(sym);
    lu.refactor(work);

    std::vector<cplx> b0(n, cplx{}), b1(n, cplx{});
    b0[1] = cplx{1.0, 0.0};
    b1[n - 2] = cplx{0.0, 2.0};
    const std::vector<cplx> x0 = lu.solve(b0);
    const std::vector<cplx> x1 = lu.solve(b1);

    // In-place: b and the solution share one buffer (the engine's probe).
    std::vector<cplx> y0 = b0, y1 = b1;
    lu.solve_in_place(y0.data());
    lu.solve_in_place(y1.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y0[i], x0[i]);
        EXPECT_EQ(y1[i], x1[i]);
    }
}

// --- zero-pivot fallback with a shared symbolic object ----------------------

template <class T>
numeric::csc_matrix<T> two_by_two(T a00, T a01, T a10, T a11)
{
    // Fixed full pattern so every variant shares the symbolic structure.
    return numeric::csc_matrix<T>(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {a00, a10, a01, a11});
}

TEST(sparse_split, zero_pivot_fallback_with_shared_symbolic)
{
    // Seed matrix: diagonal-dominant, so the shared pivot order takes the
    // structural diagonal.
    const numeric::csc_matrix<cplx> a1
        = two_by_two(cplx{2.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0});
    const auto shared = std::make_shared<const numeric::symbolic_lu<cplx>>(a1);

    numeric::numeric_lu<cplx> worker(shared);
    worker.refactor(a1);
    const std::vector<cplx> x1 = worker.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_NEAR(std::abs(x1[0] - cplx{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x1[1] - cplx{1.0, 0.0}), 0.0, 1e-12);

    // Same pattern, but A(0,0) = 0: nonsingular, yet an exact zero pivot
    // under the reused order — the scenario numeric_lu::factor re-pivots.
    const numeric::csc_matrix<cplx> a2
        = two_by_two(cplx{}, cplx{1.0, 0.0}, cplx{1.0, 0.0}, cplx{1.0, 0.0});
    EXPECT_THROW(worker.refactor(a2), numeric_error);

    // Re-pivot from the current values with a new local symbolic object,
    // as numeric_lu::factor does.
    const auto local = std::make_shared<const numeric::symbolic_lu<cplx>>(a2);
    numeric::numeric_lu<cplx> fresh(local);
    fresh.refactor(a2);
    const std::vector<cplx> x2 = fresh.solve({cplx{1.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_NEAR(std::abs(x2[0] - cplx{1.0, 0.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x2[1] - cplx{1.0, 0.0}), 0.0, 1e-12);

    // The shared symbolic object is immutable: the worker that threw can
    // refactor against it again, and other workers can keep using it.
    worker.refactor(a1);
    const std::vector<cplx> x3 = worker.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}});
    EXPECT_EQ(x3, x1);
    numeric::numeric_lu<cplx> other(shared);
    other.refactor(a1);
    EXPECT_EQ(other.solve({cplx{3.0, 0.0}, cplx{2.0, 0.0}}), x1);
}

// --- numeric_lu::factor: the guarded refactorization ----------------------

template <class T>
void expect_factor_repivots_stale_orders()
{
    // Seed [[2,1],[1,1]]: the order takes the structural diagonal.
    const auto seed = two_by_two<T>(T{2.0}, T{1.0}, T{1.0}, T{1.0});
    const auto sym = std::make_shared<const numeric::symbolic_lu<T>>(seed);
    const std::vector<std::size_t> seed_pinv = sym->pinv();
    const std::vector<T> ones{T{1.0}, T{1.0}};

    numeric::numeric_lu<T> lu(sym);
    lu.set_batch_kernel(numeric::batch_kernel::simd);
    lu.set_supernodal(true);
    auto res = lu.factor(seed);
    EXPECT_FALSE(res.probed);
    EXPECT_FALSE(res.repivoted);

    // [[1e-13,1],[1,3]] under the seed's order pivots on 1e-13: growth
    // 1e13, and a raw refactorization loses four digits of x0.
    const auto stale = two_by_two<T>(T{1e-13}, T{1.0}, T{1.0}, T{3.0});
    numeric::numeric_lu<T> raw(sym);
    raw.refactor(stale);
    EXPECT_GT(raw.growth(), 1e12);
    EXPECT_GT(std::abs(raw.solve(ones)[0] - T{-2.0}), 1e-4);

    res = lu.factor(stale);
    EXPECT_TRUE(res.probed);
    EXPECT_TRUE(res.repivoted);
    const numeric::sparse_lu<T> fresh(stale);
    const std::vector<T> ref = fresh.solve(ones);
    const std::vector<T> x = lu.solve(ones);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_LT(std::abs(x[i] - ref[i]), 1e-12) << i;
    EXPECT_NEAR(std::real(x[0]), -2.0000000000006, 1e-12);

    // The kernel and supernodal mode carried over, and a batch solve on
    // the new order's panels agrees with the fresh factorization.
    EXPECT_TRUE(lu.supernodal());
    EXPECT_EQ(lu.kernel(), numeric::batch_kernel::simd);
    const std::vector<T> twos{T{2.0}, T{2.0}};
    const T* cols[] = {ones.data(), twos.data()};
    std::vector<T> xb(4);
    lu.solve_batch(cols, 2, xb.data());
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_LT(std::abs(xb[i] - ref[i]), 1e-12) << i;
        EXPECT_LT(std::abs(xb[2 + i] - T{2.0} * ref[i]), 1e-12) << i;
    }

    // The instance keeps the new order: the same matrix needs no guard.
    res = lu.factor(stale);
    EXPECT_FALSE(res.probed);
    EXPECT_FALSE(res.repivoted);

    // An exact zero pivot under the seed's order re-pivots unprobed.
    numeric::numeric_lu<T> zero(sym);
    res = zero.factor(two_by_two<T>(T{}, T{1.0}, T{1.0}, T{1.0}));
    EXPECT_FALSE(res.probed);
    EXPECT_TRUE(res.repivoted);
    const std::vector<T> xz = zero.solve({T{1.0}, T{2.0}});
    EXPECT_LT(std::abs(xz[0] - T{1.0}), 1e-12);
    EXPECT_LT(std::abs(xz[1] - T{1.0}), 1e-12);

    // Re-pivoting replaced only the instances' orders, never the shared one.
    EXPECT_EQ(sym->pinv(), seed_pinv);
}

TEST(sparse_split, factor_repivots_stale_order_complex)
{
    expect_factor_repivots_stale_orders<cplx>();
}

TEST(sparse_split, factor_repivots_stale_order_real)
{
    expect_factor_repivots_stale_orders<real>();
}

TEST(sparse_split, sparse_lu_facade_exposes_shared_symbolic)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 8);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e5), work);

    numeric::sparse_lu<cplx>::options lopt;
    lopt.prepare_refactor = true;
    const numeric::sparse_lu<cplx> facade(work, lopt);

    // A worker bound to the facade's symbolic half reproduces its solves
    // (to rounding: the facade adopts the seed values from the analysis,
    // whose elimination order differs from refactor's by design).
    numeric::numeric_lu<cplx> worker(facade.symbolic());
    worker.refactor(work);
    std::vector<cplx> rhs(snap.size(), cplx{});
    rhs[2] = cplx{1.0, 0.0};
    const std::vector<cplx> a = worker.solve(rhs);
    const std::vector<cplx> b = facade.solve(rhs);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(a[i] - b[i]), 1e-12 * std::max(std::abs(b[i]), real{1e-12})) << i;
}

TEST(sparse_split, snapshot_caches_shared_symbolic)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 8);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});

    const auto s1 = snap.shared_symbolic(to_omega(1e6));
    const auto s2 = snap.shared_symbolic(to_omega(1e6));
    EXPECT_EQ(s1.get(), s2.get()); // cached, not recomputed
    const auto s3 = snap.shared_symbolic(to_omega(1e3));
    EXPECT_NE(s1.get(), s3.get()); // different reference frequency
    EXPECT_EQ(s1->size(), s3->size());
}

} // namespace
