// Supernodal blocked numeric path: detection invariants on hand-built
// patterns, blocked-vs-column refactor/solve equivalence on real
// snapshots, and panel adoption from seed values. The engine-level
// equivalence across netlists/threads lives in test_solver_modes.cpp;
// these tests pin the numeric layer in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <random>
#include <type_traits>
#include <vector>

#include "circuits/opamp.h"
#include "circuits/rlc.h"
#include "engine/linearized_snapshot.h"
#include "gen/netlist_gen.h"
#include "numeric/sparse_factor.h"
#include "numeric/sparse_lu.h"
#include "numeric/supernode.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;
using numeric::supernode_partition;

// --- detection on hand-built patterns ---------------------------------------

/// Build lcol_ptr/lrow from per-column row lists.
struct pattern {
    std::vector<std::size_t> col_ptr{0};
    std::vector<std::size_t> rows;
    void add(std::initializer_list<std::size_t> col)
    {
        rows.insert(rows.end(), col.begin(), col.end());
        col_ptr.push_back(rows.size());
    }
};

TEST(supernode_detect, dense_block_is_one_supernode)
{
    // 4 columns, fully nested: P(0)={1,2,3}, P(1)={2,3}, P(2)={3}, P(3)={}.
    pattern p;
    p.add({1, 2, 3});
    p.add({2, 3});
    p.add({3});
    p.add({});
    const supernode_partition sn = numeric::detect_supernodes(4, p.col_ptr, p.rows);
    ASSERT_EQ(sn.count(), 1u);
    EXPECT_EQ(sn.width(0), 4u);
    EXPECT_EQ(sn.sub_rows(0), 0u);
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(sn.col_super[k], 0u);
}

TEST(supernode_detect, diagonal_matrix_is_all_singletons_when_strict)
{
    // Strict detection (relaxation off): nothing nests, five singletons.
    pattern p;
    for (int k = 0; k < 5; ++k)
        p.add({});
    const supernode_partition sn = numeric::detect_supernodes(5, p.col_ptr, p.rows, 32, 0, 0.0);
    ASSERT_EQ(sn.count(), 5u);
    for (std::size_t s = 0; s < 5; ++s) {
        EXPECT_EQ(sn.width(s), 1u);
        EXPECT_EQ(sn.sub_rows(s), 0u);
    }
}

TEST(supernode_detect, nested_with_shared_sub_rows)
{
    // Columns 0-1 share sub-rows {4,6} (P(0) = {1,4,6}, P(1) = {4,6});
    // column 2 breaks the run (pattern not nested in P(1)).
    pattern p;
    p.add({1, 6, 4}); // unsorted on purpose: detection must not rely on order
    p.add({4, 6});
    p.add({5});
    p.add({6, 4});
    p.add({6});
    p.add({6});
    p.add({});
    const supernode_partition sn = numeric::detect_supernodes(7, p.col_ptr, p.rows, 32, 0, 0.0);
    ASSERT_GE(sn.count(), 3u);
    EXPECT_EQ(sn.first[0], 0u);
    EXPECT_EQ(sn.width(0), 2u);
    ASSERT_EQ(sn.sub_rows(0), 2u);
    // Shared sub-row pattern is the LAST column's, sorted ascending.
    EXPECT_EQ(sn.rows[sn.row_ptr[0]], 4u);
    EXPECT_EQ(sn.rows[sn.row_ptr[0] + 1], 6u);
    EXPECT_EQ(sn.col_super[0], 0u);
    EXPECT_EQ(sn.col_super[1], 0u);
    EXPECT_NE(sn.col_super[2], 0u);
}

TEST(supernode_detect, width_cap_splits_runs)
{
    // 6 fully nested columns with a width cap of 2 -> three supernodes.
    pattern p;
    for (std::size_t k = 0; k < 6; ++k) {
        std::vector<std::size_t> col;
        for (std::size_t r = k + 1; r < 6; ++r)
            col.push_back(r);
        p.rows.insert(p.rows.end(), col.begin(), col.end());
        p.col_ptr.push_back(p.rows.size());
    }
    const supernode_partition sn = numeric::detect_supernodes(6, p.col_ptr, p.rows, 2);
    ASSERT_EQ(sn.count(), 3u);
    for (std::size_t s = 0; s < 3; ++s)
        EXPECT_EQ(sn.width(s), 2u);
    // The capped run's sub-rows are the NEXT block's pivot rows plus the
    // remainder: pattern of column 1 = {2,3,4,5}.
    EXPECT_EQ(sn.sub_rows(0), 4u);
}

TEST(supernode_detect, partition_covers_all_columns)
{
    // Random-ish nested/broken patterns must still partition 0..n-1 into
    // consecutive runs.
    pattern p;
    p.add({1, 2});
    p.add({2});
    p.add({3, 5});
    p.add({5, 4});
    p.add({5});
    p.add({});
    const supernode_partition sn = numeric::detect_supernodes(6, p.col_ptr, p.rows);
    ASSERT_GT(sn.count(), 0u);
    EXPECT_EQ(sn.first.front(), 0u);
    EXPECT_EQ(sn.first.back(), 6u);
    for (std::size_t s = 0; s < sn.count(); ++s) {
        EXPECT_LT(sn.first[s], sn.first[s + 1]);
        for (std::size_t k = sn.first[s]; k < sn.first[s + 1]; ++k)
            EXPECT_EQ(sn.col_super[k], s);
    }
}

// --- relaxed amalgamation ---------------------------------------------------

TEST(supernode_relax, merges_singletons_within_zero_budget)
{
    // Five empty-pattern singletons merge into one width-5 panel: the
    // merged lower triangle pads tri(5) = 10 zeros <= relax_zeros = 12.
    pattern p;
    for (int k = 0; k < 5; ++k)
        p.add({});
    const supernode_partition sn = numeric::detect_supernodes(5, p.col_ptr, p.rows);
    ASSERT_EQ(sn.count(), 1u);
    EXPECT_EQ(sn.width(0), 5u);
    EXPECT_EQ(sn.sub_rows(0), 0u);
    for (std::size_t k = 0; k < 5; ++k)
        EXPECT_EQ(sn.col_super[k], 0u);
}

TEST(supernode_relax, merged_pattern_is_sorted_union)
{
    // Columns 0 and 1 have disjoint sub-rows {2,4} and {3,4}: strict
    // detection keeps them apart, relaxation merges them (3 padded
    // zeros) and the shared pattern becomes the union {2,3,4}.
    pattern p;
    p.add({4, 2}); // unsorted on purpose
    p.add({3, 4});
    p.add({});
    p.add({});
    p.add({});
    const supernode_partition strict =
        numeric::detect_supernodes(5, p.col_ptr, p.rows, 32, 0, 0.0);
    EXPECT_NE(strict.col_super[0], strict.col_super[1]);

    const supernode_partition sn = numeric::detect_supernodes(5, p.col_ptr, p.rows, 2);
    EXPECT_EQ(sn.col_super[0], sn.col_super[1]);
    ASSERT_EQ(sn.width(0), 2u);
    const std::size_t b = sn.row_ptr[0];
    ASSERT_EQ(sn.sub_rows(0), 3u);
    EXPECT_EQ(sn.rows[b], 2u);
    EXPECT_EQ(sn.rows[b + 1], 3u);
    EXPECT_EQ(sn.rows[b + 2], 4u);
}

TEST(supernode_relax, merges_respect_width_cap)
{
    // With max_width = 2 the diagonal matrix merges pairwise only.
    pattern p;
    for (int k = 0; k < 5; ++k)
        p.add({});
    const supernode_partition sn = numeric::detect_supernodes(5, p.col_ptr, p.rows, 2);
    ASSERT_EQ(sn.count(), 3u);
    for (std::size_t s = 0; s < sn.count(); ++s)
        EXPECT_LE(sn.width(s), 2u);
    EXPECT_EQ(sn.first.back(), 5u);
}

// --- blocked vs column equivalence on real snapshots ------------------------

[[nodiscard]] real max_rel_err(const std::vector<cplx>& a, const std::vector<cplx>& b)
{
    real worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const real mag = std::max(std::abs(a[i]), std::abs(b[i]));
        if (mag > 1e-30)
            worst = std::max(worst, std::abs(a[i] - b[i]) / mag);
    }
    return worst;
}

void expect_blocked_matches_column(spice::circuit& c, numeric::column_ordering ordering,
                                   std::size_t nrhs)
{
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1.3e5), work);
    numeric::lu_options sopt;
    sopt.ordering = ordering;
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(work, sopt);

    numeric::numeric_lu<cplx> col(sym);
    col.set_batch_kernel(numeric::batch_kernel::simd);
    numeric::numeric_lu<cplx> blk(sym);
    blk.set_batch_kernel(numeric::batch_kernel::simd);
    blk.set_supernodal(true);

    // Refactor at a different frequency than the symbolic seed so both
    // paths do real work, twice to exercise panel reuse.
    for (const real f : {7.7e4, 2.9e6}) {
        snap.assemble(to_omega(f), work);
        col.refactor(work);
        blk.refactor(work);
    }

    std::mt19937 rng(123);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    std::vector<std::vector<cplx>> batch(nrhs, std::vector<cplx>(n, cplx{}));
    for (std::size_t r = 0; r < nrhs; ++r) {
        if (r % 2 == 0) {
            batch[r][(r * 7) % n] = cplx{1.0, 0.0}; // sparse injection
        } else {
            for (std::size_t i = 0; i < n; ++i)
                batch[r][i] = cplx{dist(rng), dist(rng)};
        }
    }
    std::vector<const cplx*> cols;
    for (const auto& rhs : batch)
        cols.push_back(rhs.data());
    std::vector<cplx> xc(n * nrhs);
    std::vector<cplx> xb(n * nrhs);
    col.solve_batch(cols.data(), nrhs, xc.data());
    blk.solve_batch(cols.data(), nrhs, xb.data());
    EXPECT_LT(max_rel_err(xc, xb), 1e-12);

    // The growth witnesses agree too (both maintain the CSC values).
    EXPECT_NEAR(col.growth(), blk.growth(), 1e-9 * std::max(1.0, col.growth()));
}

TEST(supernode_numeric, blocked_matches_column_on_ladder)
{
    spice::circuit c;
    circuits::build_rc_ladder(c, 64);
    expect_blocked_matches_column(c, numeric::column_ordering::amd_approx, 8);
}

TEST(supernode_numeric, blocked_matches_column_on_opamp)
{
    spice::circuit c;
    circuits::build_opamp_buffer(c);
    expect_blocked_matches_column(c, numeric::column_ordering::amd_approx, 5);
}

TEST(supernode_numeric, blocked_matches_column_under_natural_order)
{
    // Natural order keeps wide nested patterns (banded), a good stress
    // of multi-column supernodes with in-block U runs.
    spice::circuit c;
    circuits::build_rc_ladder(c, 48);
    expect_blocked_matches_column(c, numeric::column_ordering::none, 6);
}

TEST(supernode_numeric, seed_adoption_loads_panels)
{
    // set_supernodal on a seed-adopted factorization must serve blocked
    // solves without any refactor.
    spice::circuit c;
    circuits::build_rc_ladder(c, 40);
    const spice::dc_result op = spice::dc_operating_point(c);
    const engine::linearized_snapshot snap(c, op.solution, {});
    const std::size_t n = snap.size();

    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(5.0e5), work);
    numeric::symbolic_lu<cplx>::factor_values seed;
    const auto sym = std::make_shared<const numeric::symbolic_lu<cplx>>(
        work, numeric::lu_options{}, &seed);
    numeric::numeric_lu<cplx> blk(sym, std::move(seed));
    blk.set_batch_kernel(numeric::batch_kernel::simd);
    blk.set_supernodal(true);

    numeric::numeric_lu<cplx> col(sym);
    col.refactor(work);

    std::vector<std::vector<cplx>> batch(4, std::vector<cplx>(n, cplx{}));
    for (std::size_t r = 0; r < 4; ++r)
        batch[r][r] = cplx{1.0, 0.0};
    std::vector<const cplx*> cols;
    for (const auto& rhs : batch)
        cols.push_back(rhs.data());
    std::vector<cplx> xc(n * 4);
    std::vector<cplx> xb(n * 4);
    col.solve_batch(cols.data(), 4, xc.data());
    blk.solve_batch(cols.data(), 4, xb.data());
    EXPECT_LT(max_rel_err(xc, xb), 1e-12);
}

// --- pair-wise refactorization on a generated mesh ---------------------------

/// A 2k-unknown generated RC mesh: fill-heavy enough that its partition
/// has width-32 supernodes, multi-column (source, target) pairs and
/// relaxed gaps inside spans.
class mesh_case {
public:
    mesh_case()
    {
        gen::gen_options gopt;
        gopt.size = 2048;
        net_ = spice::parse_netlist(gen::rcmesh_netlist(gopt));
        net_.ckt.finalize();
        const std::vector<real> op = spice::dc_operating_point(net_.ckt).solution;
        engine::snapshot_options sopt;
        sopt.zero_all_sources = true;
        snap_ = std::make_unique<engine::linearized_snapshot>(net_.ckt, op, sopt);
    }

    [[nodiscard]] std::size_t size() const { return snap_->size(); }

    /// Y(j 2 pi f) for T = complex; for T = double the same pattern with
    /// values re + im (a nonsingular real matrix of the same structure).
    template <class T>
    [[nodiscard]] numeric::csc_matrix<T> matrix(real f) const
    {
        numeric::csc_matrix<cplx> y = snap_->make_workspace();
        snap_->assemble(to_omega(f), y);
        if constexpr (std::is_same_v<T, cplx>) {
            return y;
        } else {
            std::vector<real> v;
            for (const cplx& z : y.values())
                v.push_back(z.real() + z.imag());
            return numeric::csc_matrix<real>(y.rows(), y.cols(), y.col_ptr(), y.row_idx(),
                                             std::move(v));
        }
    }

private:
    spice::parsed_netlist net_;
    std::unique_ptr<engine::linearized_snapshot> snap_;
};

/// Normwise relative difference max|a - b| / max|a| of two solutions.
template <class T>
[[nodiscard]] real rel_diff(const std::vector<T>& a, const std::vector<T>& b)
{
    real diff = 0.0;
    real scale = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        diff = std::max(diff, real{std::abs(a[i] - b[i])});
        scale = std::max(scale, real{std::abs(a[i])});
    }
    return diff / std::max(scale, real{1e-300});
}

template <class T>
[[nodiscard]] std::vector<T> test_rhs(std::size_t n)
{
    std::mt19937 rng(7);
    std::uniform_real_distribution<real> dist(-1.0, 1.0);
    std::vector<T> b(n);
    for (T& v : b) {
        if constexpr (std::is_same_v<T, cplx>)
            v = cplx{dist(rng), dist(rng)};
        else
            v = dist(rng);
    }
    return b;
}

TEST(supernode_pairs, mesh_plan_has_wide_supernodes_multi_column_pairs_and_gaps)
{
    const mesh_case mesh;
    const numeric::symbolic_lu<cplx> sym(mesh.matrix<cplx>(1e6));
    const supernode_partition& sn = sym.supernodes();
    const numeric::supernode_plan& plan = sym.plan();

    std::size_t widest = 0;
    for (std::size_t s = 0; s < sn.count(); ++s)
        widest = std::max(widest, sn.width(s));
    EXPECT_EQ(widest, 32u);

    std::size_t multi = 0; // pairs solving a span of 2+ rows for 2+ columns
    std::size_t gaps = 0;  // pair columns whose span holds structural zeros
    for (const numeric::supernode_plan::pair& pr : plan.pairs) {
        const std::size_t end = sn.first[pr.source + 1];
        if (pr.ncols >= 2 && end - pr.span >= 2)
            ++multi;
        for (std::size_t q = pr.cols; q < pr.cols + pr.ncols; ++q) {
            std::size_t p = plan.ucsc[q];
            const std::size_t first = sym.urow()[p];
            std::size_t entries = 0;
            for (; sym.urow()[p] < end; ++p)
                ++entries;
            if (entries < end - first)
                ++gaps;
        }
    }
    EXPECT_GT(multi, 100u);
    EXPECT_GT(gaps, 0u);
}

/// Blocked against column on the mesh at several frequencies in a row on
/// one symbolic object (plan reuse): solutions and growth witnesses agree.
template <class T>
void expect_blocked_matches_column_across_frequencies()
{
    const mesh_case mesh;
    const auto sym = std::make_shared<const numeric::symbolic_lu<T>>(mesh.matrix<T>(1e6));
    numeric::numeric_lu<T> col(sym);
    numeric::numeric_lu<T> blk(sym);
    blk.set_supernodal(true);
    const std::vector<T> b = test_rhs<T>(mesh.size());
    for (const real f : {1e3, 1e5, 3e6, 1e8, 1e9}) {
        const numeric::csc_matrix<T> a = mesh.matrix<T>(f);
        col.refactor(a);
        blk.refactor(a);
        EXPECT_LT(rel_diff(col.solve(b), blk.solve(b)), 1e-12) << "f=" << f;
        EXPECT_NEAR(col.growth(), blk.growth(), 1e-12 * std::max(1.0, col.growth())) << "f=" << f;
    }
}

TEST(supernode_pairs, blocked_matches_column_across_frequencies_complex)
{
    expect_blocked_matches_column_across_frequencies<cplx>();
}

TEST(supernode_pairs, blocked_matches_column_across_frequencies_real)
{
    expect_blocked_matches_column_across_frequencies<real>();
}

/// A stale order on the mesh: one pivot of the held order is set to an
/// exact zero, so factor() re-pivots, which rebuilds the symbolic object
/// and its plan. The blocked factors then match the column path on the
/// new order, and keep matching at further frequencies.
template <class T>
void expect_repivot_rebuilds_the_plan()
{
    const mesh_case mesh;
    const numeric::csc_matrix<T> seed = mesh.matrix<T>(1e6);
    const auto sym = std::make_shared<const numeric::symbolic_lu<T>>(seed);
    // The first pivot step with nothing to eliminate (its pivot is A's
    // entry as is) in a column of three or more entries (a mesh node, so
    // the matrix stays nonsingular without that entry).
    std::size_t k = 0;
    while (sym->ucol_ptr()[k + 1] - sym->ucol_ptr()[k] != 1
           || seed.col_ptr()[sym->q()[k] + 1] - seed.col_ptr()[sym->q()[k]] < 3)
        ++k;
    const auto stale = [&](real f) {
        numeric::csc_matrix<T> a = mesh.matrix<T>(f);
        const std::size_t c = sym->q()[k];
        for (std::size_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p)
            if (sym->pinv()[a.row_idx()[p]] == k)
                a.values_mut()[p] = T{};
        return a;
    };
    numeric::numeric_lu<T> blk(sym);
    blk.set_supernodal(true);
    const numeric::csc_matrix<T> a0 = stale(1e6);
    const auto res = blk.factor(a0);
    EXPECT_TRUE(res.repivoted);
    EXPECT_NE(&blk.symbolic(), sym.get());
    EXPECT_TRUE(blk.supernodal());
    EXPECT_GT(blk.symbolic().plan().pairs.size(), 0u);

    // The re-pivot analyses a0 under the same ordering, so a fresh
    // analysis reproduces its order for the column-path reference.
    const auto fresh = std::make_shared<const numeric::symbolic_lu<T>>(a0);
    ASSERT_EQ(fresh->pinv(), blk.symbolic().pinv());
    numeric::numeric_lu<T> col(fresh);
    const std::vector<T> b = test_rhs<T>(mesh.size());
    for (const real f : {1e6, 1e4, 1e8}) {
        const numeric::csc_matrix<T> a = stale(f);
        col.refactor(a);
        if (f != 1e6)
            EXPECT_FALSE(blk.factor(a).repivoted) << "f=" << f;
        EXPECT_LT(rel_diff(col.solve(b), blk.solve(b)), 1e-12) << "f=" << f;
    }
}

TEST(supernode_pairs, repivot_rebuilds_the_plan_complex)
{
    expect_repivot_rebuilds_the_plan<cplx>();
}

TEST(supernode_pairs, repivot_rebuilds_the_plan_real)
{
    expect_repivot_rebuilds_the_plan<real>();
}

} // namespace
