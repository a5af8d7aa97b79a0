// The sparse shift-invert pole search against the dense oracle. On every
// shipped netlist (below the crossover, so the sparse path is called
// directly) and on generated loop meshes of 300-700 unknowns, the sparse
// path must find every dense pole of the band with zeta <= 0.5 and every
// right-half-plane pole to 1e-8 relative, return only poles that pass an
// independent pencil residual check, agree on the stability verdict, and
// give identical results run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "analysis/pole_zero.h"
#include "common/error.h"
#include "engine/linearized_snapshot.h"
#include "gen/netlist_gen.h"
#include "numeric/sparse_lu.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

using namespace acstab;
using analysis::pole;

/// three_pole_loop.sp as a fifth loop cell on a generated loop mesh: an
/// unstable loop, a right-half-plane pair near 195 kHz.
[[nodiscard]] std::string loop_mesh(std::size_t size, bool unstable)
{
    gen::gen_options g;
    g.size = size;
    std::string text = gen::loopmesh_netlist(g);
    if (unstable)
        text.insert(text.find(".stability"),
                    ".subckt cellu tap\nvin in 0 0\ng1 0 s1 in fb 0.01\nr1 s1 0 10k\n"
                    "c1 s1 0 15.9155n\ng2 0 s2 s1 0 1m\nr2 s2 0 10k\nc2 s2 0 1.59155n\n"
                    "g3 0 out s2 0 1m\nr3 out 0 10k\nc3 out 0 159.155p\nvprobe out fb 0\n"
                    "rbleed fb 0 1e12\nrc out tap 100k\n.ends\nxu n5_5 cellu\n");
    return text;
}

[[nodiscard]] bool is_target(const pole& p, const analysis::pole_zero_options& opt)
{
    return p.freq_hz >= opt.fmin_hz && p.freq_hz <= opt.fmax_hz
        && (p.zeta <= 0.5 || analysis::is_right_half_plane(p));
}

[[nodiscard]] bool stable(const std::vector<pole>& poles)
{
    return std::none_of(poles.begin(), poles.end(), analysis::is_right_half_plane);
}

/// Residual of a claimed pole s on the pencil, independent of the
/// search's own Ritz vectors: x from two steps of inverse iteration on a
/// fresh sparse LU of G + sC, then (G + sC) x row by row against
/// sum_j (|G_ij| + |s| |C_ij|) times ||x||_inf.
[[nodiscard]] real pencil_residual(const engine::linearized_snapshot::real_pencil& pc, cplx s)
{
    const std::size_t n = pc.g.rows();
    std::vector<cplx> v(pc.g.nnz());
    std::vector<real> scale(n);
    for (std::size_t k = 0; k < v.size(); ++k) {
        v[k] = pc.g.values()[k] + s * pc.c.values()[k];
        scale[pc.g.row_idx()[k]]
            += std::fabs(pc.g.values()[k]) + std::abs(s) * std::fabs(pc.c.values()[k]);
    }
    const numeric::csc_matrix<cplx> a(n, n, pc.g.col_ptr(), pc.g.row_idx(), v);
    std::vector<cplx> x(n, cplx{1.0, 0.0});
    try {
        const numeric::sparse_lu<cplx> lu(a);
        for (int it = 0; it < 2; ++it) {
            x = lu.solve(x);
            real xmax = 0.0;
            for (const cplx& xi : x)
                xmax = std::max(xmax, std::abs(xi));
            for (cplx& xi : x)
                xi /= xmax;
        }
    } catch (const numeric_error&) {
        return 0.0; // G + sC exactly singular: s is a pole
    }
    const std::vector<cplx> r = a.multiply(x);
    real eta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (scale[i] > 0.0)
            eta = std::max(eta, std::abs(r[i]) / scale[i]);
    return eta;
}

/// The pencil both paths solve.
[[nodiscard]] engine::linearized_snapshot::real_pencil
pencil_of(spice::circuit& c, const std::vector<real>& op, const analysis::pole_zero_options& opt)
{
    engine::snapshot_options so;
    so.gmin = opt.gmin;
    so.gshunt = opt.gshunt;
    so.zero_all_sources = true;
    return engine::linearized_snapshot(c, op, so).pencil();
}

/// Every oracle property on one circuit; returns the number of target
/// poles checked.
std::size_t expect_matches_oracle(spice::circuit& c, const analysis::pole_zero_options& opt)
{
    const std::vector<real> op = spice::dc_operating_point(c).solution;
    const std::vector<pole> dense = analysis::dense_circuit_poles(c, op, opt);
    const analysis::pole_search_result found = analysis::sparse_circuit_poles(c, op, opt);
    const std::vector<pole>& sparse = found.poles;
    EXPECT_TRUE(found.complete()) << found.unconfirmed << " unconfirmed, "
                                  << found.crowded_shifts << " crowded";

    std::size_t targets = 0;
    for (const pole& d : dense) {
        if (!is_target(d, opt))
            continue;
        ++targets;
        real best = std::numeric_limits<real>::infinity();
        for (const pole& p : sparse)
            best = std::min(best, std::abs(p.s - d.s) / std::abs(d.s));
        EXPECT_LE(best, 1e-8) << "dense pole " << d.s << " (f=" << d.freq_hz
                              << " Hz, zeta=" << d.zeta << ") missed";
    }

    const engine::linearized_snapshot::real_pencil pc = pencil_of(c, op, opt);
    for (const pole& p : sparse) {
        EXPECT_LE(pencil_residual(pc, p.s), 1e-9) << "returned pole " << p.s;
        if (p.is_complex)
            EXPECT_TRUE(std::any_of(sparse.begin(), sparse.end(),
                                    [&](const pole& q) { return q.s == std::conj(p.s); }))
                << "pole " << p.s << " without its conjugate";
    }

    EXPECT_EQ(stable(sparse), stable(dense));

    const std::vector<pole> again = analysis::sparse_circuit_poles(c, op, opt).poles;
    EXPECT_EQ(again.size(), sparse.size());
    for (std::size_t i = 0; i < std::min(again.size(), sparse.size()); ++i)
        EXPECT_EQ(again[i].s, sparse[i].s) << "run-to-run difference at pole " << i;
    return targets;
}

TEST(pole_zero_sparse, shipped_netlists_match_dense_oracle)
{
    for (const char* name :
         {"follower.sp", "rlc_tank.sp", "two_pole_loop.sp", "three_pole_loop.sp"}) {
        SCOPED_TRACE(name);
        spice::parsed_netlist net
            = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/" + name);
        EXPECT_GE(expect_matches_oracle(net.ckt, {}), 2u);
    }
}

TEST(pole_zero_sparse, loop_meshes_match_dense_oracle)
{
    struct mesh {
        std::size_t size;
        bool unstable;
    };
    for (const mesh m : {mesh{300, true}, mesh{500, false}, mesh{650, true}}) {
        SCOPED_TRACE("loopmesh size " + std::to_string(m.size));
        spice::parsed_netlist net = spice::parse_netlist(loop_mesh(m.size, m.unstable));
        ASSERT_GE(net.ckt.unknown_count(), analysis::sparse_pole_min_unknowns);
        // Each loop cell contributes an in-band near-axis pair.
        EXPECT_GE(expect_matches_oracle(net.ckt, {}), m.unstable ? 10u : 8u);
        const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
        EXPECT_EQ(stable(analysis::circuit_poles(net.ckt, op)), !m.unstable);
    }
}

TEST(pole_zero_sparse, real_right_half_plane_pole_amid_mesh_poles)
{
    // A latch node (negative conductance: a VCCS feeding its own node)
    // puts a real pole at +1e6 rad/s in the middle of the mesh's dense
    // real spectrum, where its Ritz value converges too slowly for the
    // Arnoldi pass alone; inverse iteration must finish it.
    std::string text = loop_mesh(300, false);
    text.insert(text.find(".stability"),
                "gneg 0 nx nx 0 2m\nrx nx 0 1k\ncx nx 0 1n\nrcx nx n5_5 100k\n");
    spice::parsed_netlist net = spice::parse_netlist(text);
    EXPECT_GE(expect_matches_oracle(net.ckt, {}), 9u);
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    const std::vector<pole> poles = analysis::circuit_poles(net.ckt, op);
    EXPECT_TRUE(std::any_of(poles.begin(), poles.end(), [](const pole& p) {
        return !p.is_complex && std::abs(p.s.real() - 990024.0) < 1e3;
    }));
}

TEST(pole_zero_sparse, narrow_band_keeps_its_own_poles)
{
    // Only the cells' pairs (tanks near 1 MHz, two-pole loops near
    // 3 MHz) lie in 500 kHz .. 5 MHz; a band that narrow gets three
    // shifts, and they must still find all four pairs.
    spice::parsed_netlist net = spice::parse_netlist(loop_mesh(300, false));
    analysis::pole_zero_options opt;
    opt.fmin_hz = 5e5;
    opt.fmax_hz = 5e6;
    EXPECT_EQ(expect_matches_oracle(net.ckt, opt), 8u);
}

TEST(pole_zero_sparse, circuit_poles_switches_path_at_the_crossover)
{
    spice::parsed_netlist small
        = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/three_pole_loop.sp");
    ASSERT_LT(small.ckt.unknown_count(), analysis::sparse_pole_min_unknowns);
    const std::vector<real> op = spice::dc_operating_point(small.ckt).solution;
    const analysis::pole_search_result all = analysis::search_circuit_poles(small.ckt, op);
    EXPECT_FALSE(all.sparse);
    EXPECT_TRUE(all.complete());
    const std::vector<pole> dense = analysis::dense_circuit_poles(small.ckt, op);
    ASSERT_EQ(all.poles.size(), dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i)
        EXPECT_EQ(all.poles[i].s, dense[i].s);

    spice::parsed_netlist big
        = spice::parse_netlist(loop_mesh(2 * analysis::sparse_pole_min_unknowns, false));
    ASSERT_GE(big.ckt.unknown_count(), analysis::sparse_pole_min_unknowns);
    const std::vector<real> big_op = spice::dc_operating_point(big.ckt).solution;
    const analysis::pole_search_result found = analysis::search_circuit_poles(big.ckt, big_op);
    EXPECT_TRUE(found.sparse);
    // A Ritz value here blends the two tanks' poles; only the second,
    // re-shifted round of inverse iteration confirms it.
    EXPECT_TRUE(found.complete()) << found.unconfirmed << " unconfirmed";
    const std::vector<pole> fast = analysis::circuit_poles(big.ckt, big_op);
    const std::vector<pole> sparse = analysis::sparse_circuit_poles(big.ckt, big_op).poles;
    ASSERT_EQ(fast.size(), sparse.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_EQ(fast[i].s, sparse[i].s);
}

TEST(pole_zero_sparse, crowded_band_is_reported)
{
    // A 150-section LC ladder between a stiff source and an open end rings
    // at every section: its lightly damped pairs bunch below the 10 MHz
    // cutoff, far more near one shift than twenty Krylov vectors
    // resolve. The search must say so, and what it does return must
    // still be right.
    std::string text = "lc ladder\nvin in 0 0 ac 1\nrs in n0 1\n";
    for (int k = 1; k <= 150; ++k)
        text += "l" + std::to_string(k) + " n" + std::to_string(k - 1) + " n" + std::to_string(k)
            + " 1u\nc" + std::to_string(k) + " n" + std::to_string(k) + " 0 1n\n";
    text += "rl n150 0 1meg\n.end\n";
    spice::parsed_netlist net = spice::parse_netlist(text);
    ASSERT_GE(net.ckt.unknown_count(), analysis::sparse_pole_min_unknowns);
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    const analysis::pole_zero_options opt;
    const analysis::pole_search_result found = analysis::sparse_circuit_poles(net.ckt, op, opt);
    EXPECT_GT(found.crowded_shifts, 0u);
    EXPECT_FALSE(found.complete());

    const engine::linearized_snapshot::real_pencil pc = pencil_of(net.ckt, op, opt);
    for (const pole& p : found.poles)
        EXPECT_LE(pencil_residual(pc, p.s), 1e-9) << "returned pole " << p.s;
    EXPECT_EQ(stable(found.poles), stable(analysis::dense_circuit_poles(net.ckt, op, opt)));
}

TEST(pole_zero_sparse, shift_on_a_lossless_pole_is_that_pole)
{
    // 1 H || 1 F without shunts rings at exactly 1 rad/s. With the band
    // starting there, G + jC is singular under every pivot order at the
    // first shift: that shift is the pole, not a failed factorization.
    spice::parsed_netlist net = spice::parse_netlist("lc\nl1 t 0 1\nc1 t 0 1\n.end\n");
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    analysis::pole_zero_options opt;
    opt.gmin = 0.0;
    opt.gshunt = 0.0;
    opt.fmin_hz = 1.0 / two_pi;
    opt.fmax_hz = 10.0 / two_pi;
    ASSERT_EQ(to_omega(opt.fmin_hz), 1.0);
    const analysis::pole_search_result found = analysis::sparse_circuit_poles(net.ckt, op, opt);
    ASSERT_EQ(found.poles.size(), 2u);
    EXPECT_EQ(found.poles[0].s, cplx(0.0, -1.0));
    EXPECT_EQ(found.poles[1].s, cplx(0.0, 1.0));
    EXPECT_TRUE(found.complete());
}

TEST(pole_zero_sparse, non_finite_operating_point_rejected_by_both_paths)
{
    spice::parsed_netlist net
        = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/two_pole_loop.sp");
    std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    op[0] = std::nan("");
    EXPECT_THROW((void)analysis::circuit_poles(net.ckt, op), analysis_error);
    EXPECT_THROW((void)analysis::dense_circuit_poles(net.ckt, op), analysis_error);
    EXPECT_THROW((void)analysis::sparse_circuit_poles(net.ckt, op), analysis_error);
    op[0] = std::numeric_limits<real>::infinity();
    EXPECT_THROW((void)analysis::sparse_circuit_poles(net.ckt, op), analysis_error);
}

TEST(pole_zero_sparse, empty_band_rejected)
{
    spice::parsed_netlist net
        = spice::parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/rlc_tank.sp");
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    analysis::pole_zero_options opt;
    opt.fmin_hz = 1e6;
    opt.fmax_hz = 1e5;
    EXPECT_THROW((void)analysis::sparse_circuit_poles(net.ckt, op, opt), analysis_error);
    opt.fmin_hz = 0.0;
    EXPECT_THROW((void)analysis::sparse_circuit_poles(net.ckt, op, opt), analysis_error);
}

TEST(pole_zero_sparse, gram_schmidt_kernels_match_std_complex_bit_for_bit)
{
    // The projection and update against the std::complex expressions
    // they replace, on random vectors of mostly unit-scale entries (where
    // any change in rounding order shows) mixed with zeros of both signs,
    // subnormals and magnitudes from 1e-300 to 1e100. No product
    // overflows at those sizes, so std::complex's NaN recovery never acts.
    std::mt19937_64 rng(20261018);
    std::uniform_real_distribution<real> unit(-1.0, 1.0);
    std::uniform_real_distribution<real> exponent(-300.0, 100.0);
    std::uniform_int_distribution<int> kind(0, 9);
    const auto entry = [&]() -> real {
        switch (kind(rng)) {
        case 0:
            return 0.0;
        case 1:
            return -0.0;
        case 2:
            return unit(rng) * 1e-310; // subnormal
        case 3:
            return unit(rng) * std::pow(10.0, exponent(rng));
        default:
            return unit(rng);
        }
    };
    const auto bits = [](cplx z) {
        return std::array<std::uint64_t, 2>{std::bit_cast<std::uint64_t>(z.real()),
                                            std::bit_cast<std::uint64_t>(z.imag())};
    };
    for (std::size_t trial = 0; trial < 500; ++trial) {
        const std::size_t n = trial % 37;
        std::vector<cplx> v(n), w(n);
        for (std::size_t k = 0; k < n; ++k) {
            v[k] = {entry(), entry()};
            w[k] = {entry(), entry()};
        }
        cplx d_ref{};
        for (std::size_t k = 0; k < n; ++k)
            d_ref += std::conj(v[k]) * w[k];
        const cplx d = analysis::projection(v, w);
        EXPECT_EQ(bits(d), bits(d_ref)) << "trial " << trial;

        std::vector<cplx> w_ref = w;
        for (std::size_t k = 0; k < n; ++k)
            w_ref[k] -= d * v[k];
        analysis::subtract_projection(d, v, w);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(bits(w[k]), bits(w_ref[k])) << "trial " << trial << " k " << k;
    }
}

} // namespace
