// The stress-netlist generators behind `acstab gen` (gen/netlist_gen):
// emitted text must parse cleanly at any size, realize the documented
// node counts, carry a usable .stability card, reject bad options, and
// produce circuits the analyzers actually solve.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "core/analyzer.h"
#include "gen/netlist_gen.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

TEST(netlist_gen, ladder_parses_with_expected_topology)
{
    gen::gen_options opt;
    opt.size = 17;
    spice::parsed_netlist net = spice::parse_netlist(gen::ladder_netlist(opt));

    // "in" drive node plus the 17 ladder nodes (ground is not counted).
    EXPECT_EQ(net.ckt.node_count(), 18u);
    EXPECT_TRUE(net.ckt.find_node("in").has_value());
    EXPECT_TRUE(net.ckt.find_node("n17").has_value());
    EXPECT_FALSE(net.ckt.find_node("n18").has_value());

    // The emitted .stability card probes the middle node with the
    // requested band.
    ASSERT_EQ(net.analyses.size(), 1u);
    const spice::analysis_card& card = net.analyses.front();
    EXPECT_EQ(card.kind, spice::analysis_kind::stability_node);
    EXPECT_EQ(card.node, "n9");
    EXPECT_DOUBLE_EQ(card.fstart, opt.fstart);
    EXPECT_DOUBLE_EQ(card.fstop, opt.fstop);
    EXPECT_EQ(card.points_per_decade, opt.points_per_decade);
}

TEST(netlist_gen, rcmesh_parses_with_expected_topology)
{
    gen::gen_options opt;
    opt.size = 9; // k = 3
    spice::parsed_netlist net = spice::parse_netlist(gen::rcmesh_netlist(opt));

    // "src" drive node plus the 3x3 grid.
    EXPECT_EQ(net.ckt.node_count(), 10u);
    EXPECT_TRUE(net.ckt.find_node("src").has_value());
    EXPECT_TRUE(net.ckt.find_node("n0_0").has_value());
    EXPECT_TRUE(net.ckt.find_node("n2_2").has_value());
    EXPECT_FALSE(net.ckt.find_node("n3_0").has_value());

    ASSERT_EQ(net.analyses.size(), 1u);
    EXPECT_EQ(net.analyses.front().kind, spice::analysis_kind::stability_node);
    EXPECT_EQ(net.analyses.front().node, "n1_1");

    // A sub-target size still realizes the documented minimum mesh (2x2).
    opt.size = 1;
    spice::parsed_netlist tiny = spice::parse_netlist(gen::rcmesh_netlist(opt));
    EXPECT_EQ(tiny.ckt.node_count(), 5u);
}

TEST(netlist_gen, rcmesh_accepts_hundred_thousand_nodes)
{
    // The size -> k mapping used to round-trip through double sqrt and
    // long; verify the integer path realizes the exact k*k grid at the
    // 100k-node scale the scaling bench sweeps (emit + count only, no
    // parse: the text is ~30 MB).
    gen::gen_options opt;
    opt.size = 100000; // k = 316 (316^2 = 99856, 317^2 = 100489)
    const std::string text = gen::rcmesh_netlist(opt);
    EXPECT_NE(text.find("* generated 316x316 RC mesh"), std::string::npos);
    EXPECT_NE(text.find("n315_315 0 "), std::string::npos); // last grid cap
    EXPECT_EQ(text.find("n316_"), std::string::npos);
    EXPECT_NE(text.find(".stability n158_158 "), std::string::npos);

    // Sizes just below/above a square boundary round to nearest, not down.
    opt.size = 99856;
    EXPECT_NE(gen::rcmesh_netlist(opt).find("316x316"), std::string::npos);
    opt.size = 100489;
    EXPECT_NE(gen::rcmesh_netlist(opt).find("317x317"), std::string::npos);

    // Absurd sizes fail loudly instead of overflowing index arithmetic.
    opt.size = std::size_t{1} << 40;
    EXPECT_THROW((void)gen::rcmesh_netlist(opt), analysis_error);
    EXPECT_THROW((void)gen::ladder_netlist(opt), analysis_error);
}

TEST(netlist_gen, loopmesh_carries_cells_on_the_rcmesh_grid)
{
    gen::gen_options opt;
    opt.size = 100; // k = 10
    const std::string text = gen::loopmesh_netlist(opt);
    spice::parsed_netlist net = spice::parse_netlist(text);
    for (const char* node : {"src", "n0_0", "n9_9", "x0.tank", "x1.out", "x2.tank", "x3.out"})
        EXPECT_TRUE(net.ckt.find_node(node).has_value()) << node;
    EXPECT_FALSE(net.ckt.find_node("x3.s2").has_value());

    // The card probes the first tank's mesh node (the port its 100 kOhm
    // coupling hangs off).
    ASSERT_EQ(net.analyses.size(), 1u);
    const std::string port = net.analyses.front().node;
    EXPECT_NE(text.find("x0 " + port + " cell0"), std::string::npos) << port;
}

TEST(netlist_gen, generate_dispatches_and_is_deterministic)
{
    gen::gen_options opt;
    opt.size = 12;
    EXPECT_EQ(gen::generate_netlist("ladder", opt), gen::ladder_netlist(opt));
    EXPECT_EQ(gen::generate_netlist("rcmesh", opt), gen::rcmesh_netlist(opt));
    EXPECT_EQ(gen::generate_netlist("loopmesh", opt), gen::loopmesh_netlist(opt));
    EXPECT_EQ(gen::ladder_netlist(opt), gen::ladder_netlist(opt));
}

TEST(netlist_gen, rejects_bad_options)
{
    EXPECT_THROW((void)gen::generate_netlist("spiral", {}), analysis_error);

    gen::gen_options opt;
    opt.size = 0;
    EXPECT_THROW((void)gen::ladder_netlist(opt), analysis_error);

    opt = {};
    opt.r = -1.0;
    EXPECT_THROW((void)gen::ladder_netlist(opt), analysis_error);
    opt = {};
    opt.c = 0.0;
    EXPECT_THROW((void)gen::rcmesh_netlist(opt), analysis_error);
    opt = {};
    opt.fstart = 1e6;
    opt.fstop = 1e3; // inverted band
    EXPECT_THROW((void)gen::rcmesh_netlist(opt), analysis_error);
}

TEST(netlist_gen, generated_ladder_runs_end_to_end)
{
    // A driven RC ladder is passive, so the probed node must come back
    // without an under-damped complex-pole signature — the point is that
    // the full parse -> DC -> sweep -> plot pipeline accepts generated
    // input unmodified.
    gen::gen_options gopt;
    gopt.size = 24;
    spice::parsed_netlist net = spice::parse_netlist(gen::ladder_netlist(gopt));

    core::stability_options opt;
    opt.sweep.fstart = gopt.fstart;
    opt.sweep.fstop = gopt.fstop;
    core::stability_analyzer an(net.ckt, opt);
    const core::node_stability ns = an.analyze_node(net.analyses.front().node);
    EXPECT_EQ(ns.node, "n12");
    EXPECT_FALSE(ns.is_underdamped);
    ASSERT_FALSE(ns.plot.freq_hz.empty());
}

} // namespace
