// The approximate-minimum-degree column pre-ordering
// (numeric/amd_order.h): the permutation must be valid and deterministic
// on any pattern, degrade to something sensible on structures where
// ordering cannot help, and — the reason it exists — beat the natural
// order by a wide margin on 2-D mesh patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "engine/linearized_snapshot.h"
#include "gen/netlist_gen.h"
#include "numeric/amd_order.h"
#include "numeric/sparse_factor.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

/// CSC pattern of an n x n matrix from explicit (row, col) entries.
struct pattern {
    std::size_t n;
    std::vector<std::size_t> col_ptr;
    std::vector<std::size_t> row_idx;

    pattern(std::size_t n_, const std::vector<std::pair<std::size_t, std::size_t>>& entries)
        : n(n_), col_ptr(n_ + 1, 0)
    {
        std::vector<std::vector<std::size_t>> cols(n);
        for (const auto& [r, c] : entries)
            cols[c].push_back(r);
        for (std::size_t c = 0; c < n; ++c) {
            std::sort(cols[c].begin(), cols[c].end());
            col_ptr[c + 1] = col_ptr[c] + cols[c].size();
            row_idx.insert(row_idx.end(), cols[c].begin(), cols[c].end());
        }
    }
};

bool is_permutation(const std::vector<std::size_t>& q, std::size_t n)
{
    if (q.size() != n)
        return false;
    std::vector<bool> seen(n, false);
    for (const std::size_t v : q) {
        if (v >= n || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

/// 2-D k x k grid pattern (5-point stencil plus diagonal), the classic
/// fill stress where minimum degree must win.
pattern mesh_pattern(std::size_t k)
{
    std::vector<std::pair<std::size_t, std::size_t>> e;
    const auto id = [k](std::size_t i, std::size_t j) { return i * k + j; };
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j) {
            e.emplace_back(id(i, j), id(i, j));
            if (j + 1 < k) {
                e.emplace_back(id(i, j), id(i, j + 1));
                e.emplace_back(id(i, j + 1), id(i, j));
            }
            if (i + 1 < k) {
                e.emplace_back(id(i, j), id(i + 1, j));
                e.emplace_back(id(i + 1, j), id(i, j));
            }
        }
    return pattern(k * k, e);
}

TEST(amd_order, approx_permutation_is_valid_on_assorted_patterns)
{
    // Valid permutations on tridiagonal, arrow, mesh, diagonal,
    // unsymmetric and degenerate structures.
    std::vector<std::pair<std::size_t, std::size_t>> tri;
    for (std::size_t i = 0; i < 9; ++i) {
        tri.emplace_back(i, i);
        if (i + 1 < 9) {
            tri.emplace_back(i, i + 1);
            tri.emplace_back(i + 1, i);
        }
    }
    const pattern trid(9, tri);
    EXPECT_TRUE(is_permutation(
        numeric::approx_minimum_degree_order(trid.n, trid.col_ptr, trid.row_idx), trid.n));

    std::vector<std::pair<std::size_t, std::size_t>> arrow;
    for (std::size_t i = 0; i < 12; ++i) {
        arrow.emplace_back(i, i);
        if (i != 0) {
            arrow.emplace_back(0, i);
            arrow.emplace_back(i, 0);
        }
    }
    // Dense arrow (one hub row/column): the hub outranks every leaf until
    // only it and one leaf remain (then both have degree 1 and the tie
    // break may go either way), so it lands in the final two positions.
    const pattern arr(12, arrow);
    const std::vector<std::size_t> q
        = numeric::approx_minimum_degree_order(arr.n, arr.col_ptr, arr.row_idx);
    EXPECT_TRUE(is_permutation(q, arr.n));
    EXPECT_TRUE(q[arr.n - 1] == 0u || q[arr.n - 2] == 0u)
        << "hub of the arrow pattern must be pivoted among the last two";

    const pattern mesh = mesh_pattern(7);
    EXPECT_TRUE(is_permutation(
        numeric::approx_minimum_degree_order(mesh.n, mesh.col_ptr, mesh.row_idx), mesh.n));
    const pattern diag(5, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}});
    EXPECT_TRUE(is_permutation(
        numeric::approx_minimum_degree_order(diag.n, diag.col_ptr, diag.row_idx), diag.n));
    const pattern unsym(4, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {3, 0}, {0, 2}, {1, 3}});
    EXPECT_TRUE(is_permutation(
        numeric::approx_minimum_degree_order(unsym.n, unsym.col_ptr, unsym.row_idx), unsym.n));

    EXPECT_TRUE(numeric::approx_minimum_degree_order(0, {0}, {}).empty());
    EXPECT_EQ(numeric::approx_minimum_degree_order(1, {0, 1}, {0}),
              std::vector<std::size_t>{0});
}

TEST(amd_order, approx_deterministic_across_calls)
{
    const pattern mesh = mesh_pattern(9);
    const auto q1 = numeric::approx_minimum_degree_order(mesh.n, mesh.col_ptr, mesh.row_idx);
    const auto q2 = numeric::approx_minimum_degree_order(mesh.n, mesh.col_ptr, mesh.row_idx);
    EXPECT_EQ(q1, q2);
}

/// The fill claim, at test scale: on a generated ~1k-node RC mesh the
/// natural order fills at least 2x more than approximate minimum degree.
/// CI re-asserts this at 2k nodes from the bench JSON.
TEST(amd_order, mesh_fill_at_least_2x_better_than_natural_order)
{
    gen::gen_options gopt;
    gopt.size = 1024;
    spice::parsed_netlist net = spice::parse_netlist(gen::rcmesh_netlist(gopt));
    net.ckt.finalize();
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    const engine::linearized_snapshot snap(net.ckt, op, {});
    numeric::csc_matrix<cplx> work = snap.make_workspace();
    snap.assemble(to_omega(1e6), work);

    const auto fill = [&work](numeric::column_ordering o) {
        numeric::lu_options lopt;
        lopt.ordering = o;
        const numeric::symbolic_lu<cplx> sym(work, lopt);
        return sym.lower_nnz() + sym.upper_nnz();
    };
    const std::size_t none_nnz = fill(numeric::column_ordering::none);
    const std::size_t amd_nnz = fill(numeric::column_ordering::amd_approx);
    EXPECT_GE(none_nnz, 2 * amd_nnz)
        << "none " << none_nnz << " vs amd-approx " << amd_nnz << " L+U nonzeros";
}

} // namespace
