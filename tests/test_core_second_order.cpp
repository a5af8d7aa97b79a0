// Second-order theory and the paper's Table 1.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/second_order.h"

namespace {

using namespace acstab;
using namespace acstab::core;

TEST(second_order, overshoot_formula)
{
    EXPECT_NEAR(overshoot_percent(0.2), 52.66, 0.05);
    EXPECT_NEAR(overshoot_percent(0.5), 16.30, 0.05);
    EXPECT_NEAR(overshoot_percent(0.7), 4.60, 0.05);
    EXPECT_NEAR(overshoot_percent(1.0), 0.0, 1e-12);
    EXPECT_NEAR(overshoot_percent(0.0), 100.0, 1e-12);
}

TEST(second_order, phase_margin_exact)
{
    // Known values of the exact unity-feedback phase-margin formula.
    EXPECT_NEAR(phase_margin_exact_deg(0.5), 51.83, 0.05);
    EXPECT_NEAR(phase_margin_exact_deg(0.2), 22.60, 0.1);
    EXPECT_NEAR(phase_margin_exact_deg(0.7), 65.16, 0.05);
    EXPECT_NEAR(phase_margin_exact_deg(0.0), 0.0, 1e-12);
}

TEST(second_order, rule_of_thumb_tracks_exact_below_07)
{
    for (real z = 0.1; z <= 0.6; z += 0.1)
        EXPECT_NEAR(phase_margin_rule_deg(z), phase_margin_exact_deg(z), 7.0) << z;
}

TEST(second_order, peak_magnitude)
{
    EXPECT_NEAR(peak_magnitude(0.5), 1.1547, 1e-4);
    EXPECT_NEAR(peak_magnitude(0.2), 2.5516, 1e-4);
    EXPECT_NEAR(peak_magnitude(0.1), 5.0252, 1e-4);
    EXPECT_NEAR(peak_magnitude(0.8), 1.0, 1e-12); // no resonance
}

TEST(second_order, performance_index_round_trip)
{
    for (real z = 0.05; z < 1.0; z += 0.05) {
        const real p = performance_index(z);
        EXPECT_NEAR(zeta_from_performance_index(p), z, 1e-12);
    }
    EXPECT_THROW((void)zeta_from_performance_index(2.0), analysis_error);
    EXPECT_THROW((void)zeta_from_performance_index(0.0), analysis_error);
}

TEST(second_order, table1_matches_paper_rows)
{
    // The paper's Table 1, rounded the way the paper prints it.
    const auto rows = table1();
    ASSERT_EQ(rows.size(), 11u);
    struct paper_row {
        real zeta, overshoot, pm, mp, index;
    };
    // zeta / overshoot% / PM deg / max magnitude / performance index
    const paper_row paper[] = {
        {1.0, 0.0, -1.0, -1.0, -1.0},  {0.9, 0.0, -1.0, -1.0, -1.2},
        {0.8, 2.0, -1.0, -1.0, -1.6},  {0.7, 5.0, 70.0, 1.01, -2.0},
        {0.6, 10.0, 60.0, 1.04, -2.8}, {0.5, 16.0, 50.0, 1.15, -4.0},
        {0.4, 25.0, 40.0, 1.4, -6.3},  {0.3, 37.0, 30.0, 1.8, -11.0},
        {0.2, 53.0, 20.0, 2.6, -25.0}, {0.1, 73.0, 10.0, 5.0, -100.0},
    };
    for (std::size_t i = 0; i < std::size(paper); ++i) {
        const auto& row = rows[i];
        const auto& want = paper[i];
        EXPECT_NEAR(row.zeta, want.zeta, 1e-12);
        EXPECT_NEAR(row.overshoot_pct, want.overshoot, 1.0) << "zeta=" << want.zeta;
        if (want.pm > 0.0)
            EXPECT_NEAR(row.phase_margin_deg, want.pm, 0.5) << "zeta=" << want.zeta;
        if (want.mp > 0.0)
            EXPECT_NEAR(row.max_magnitude, want.mp, 0.06) << "zeta=" << want.zeta;
        EXPECT_NEAR(row.perf_index, want.index, std::fabs(want.index) * 0.04 + 0.01)
            << "zeta=" << want.zeta;
    }
    // Last row: zeta = 0 -> infinite overshoot ratio markers.
    EXPECT_EQ(rows.back().zeta, 0.0);
    EXPECT_TRUE(std::isinf(rows.back().perf_index));
    EXPECT_TRUE(std::isinf(rows.back().max_magnitude));
}

TEST(second_order, resonant_frequency)
{
    EXPECT_NEAR(resonant_frequency(0.2), std::sqrt(1.0 - 0.08), 1e-12);
    EXPECT_NEAR(resonant_frequency(0.8), 0.0, 1e-12);
}

TEST(second_order, transfer_function_dc_gain_and_peak)
{
    const auto t = transfer_function(0.25, 1e4);
    EXPECT_NEAR(t.magnitude(0.0), 1.0, 1e-12);
    EXPECT_NEAR(t.magnitude(1e4), 1.0 / 0.5, 1e-9);
}

} // namespace
