// Interpolation, crossings, parabolic peak refinement, grids.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/types.h"
#include "numeric/interpolation.h"

namespace {

using acstab::real;
using acstab::numeric::find_crossing;
using acstab::numeric::interp_linear;
using acstab::numeric::lin_space;
using acstab::numeric::log_space;
using acstab::numeric::refine_extremum;

TEST(interp_linear, interior_and_clamping)
{
    const std::vector<real> x{0.0, 1.0, 2.0};
    const std::vector<real> y{0.0, 10.0, 40.0};
    EXPECT_NEAR(interp_linear(x, y, 0.5), 5.0, 1e-12);
    EXPECT_NEAR(interp_linear(x, y, 1.5), 25.0, 1e-12);
    EXPECT_NEAR(interp_linear(x, y, -1.0), 0.0, 1e-12);
    EXPECT_NEAR(interp_linear(x, y, 3.0), 40.0, 1e-12);
}

TEST(interp_linear, rejects_short_arrays)
{
    const std::vector<real> one{1.0};
    EXPECT_THROW((void)interp_linear(one, one, 0.5), acstab::numeric_error);
}

TEST(find_crossing, locates_level)
{
    const std::vector<real> x{0.0, 1.0, 2.0, 3.0};
    const std::vector<real> y{0.0, 2.0, 4.0, 6.0};
    real xc = 0.0;
    ASSERT_TRUE(find_crossing(x, y, 3.0, xc));
    EXPECT_NEAR(xc, 1.5, 1e-12);
}

TEST(find_crossing, first_of_multiple)
{
    const std::vector<real> x{0.0, 1.0, 2.0, 3.0, 4.0};
    const std::vector<real> y{-1.0, 1.0, -1.0, 1.0, -1.0};
    real xc = 0.0;
    ASSERT_TRUE(find_crossing(x, y, 0.0, xc));
    EXPECT_NEAR(xc, 0.5, 1e-12);
}

TEST(find_crossing, absent)
{
    const std::vector<real> x{0.0, 1.0, 2.0};
    const std::vector<real> y{1.0, 2.0, 3.0};
    real xc = 0.0;
    EXPECT_FALSE(find_crossing(x, y, 5.0, xc));
}

TEST(refine_extremum, exact_parabola)
{
    // y = -(x - 1.3)^2 + 4 sampled off-vertex.
    const auto f = [](real x) { return -(x - 1.3) * (x - 1.3) + 4.0; };
    const auto r = refine_extremum(1.0, f(1.0), 1.25, f(1.25), 1.6, f(1.6));
    EXPECT_NEAR(r.x, 1.3, 1e-12);
    EXPECT_NEAR(r.y, 4.0, 1e-12);
}

TEST(refine_extremum, degenerate_falls_back)
{
    // Collinear points: no curvature; returns the middle sample.
    const auto r = refine_extremum(0.0, 1.0, 1.0, 2.0, 2.0, 3.0);
    EXPECT_NEAR(r.x, 1.0, 1e-12);
    EXPECT_NEAR(r.y, 2.0, 1e-12);
}

TEST(log_space, endpoints_and_spacing)
{
    const std::vector<real> g = log_space(10.0, 1000.0, 5);
    ASSERT_EQ(g.size(), 5u);
    EXPECT_NEAR(g.front(), 10.0, 1e-12);
    EXPECT_NEAR(g.back(), 1000.0, 1e-12);
    for (std::size_t i = 1; i < g.size(); ++i)
        EXPECT_NEAR(g[i] / g[i - 1], std::sqrt(10.0), 1e-9);
}

TEST(log_space, validates_input)
{
    EXPECT_THROW(log_space(-1.0, 10.0, 4), acstab::numeric_error);
    EXPECT_THROW(log_space(10.0, 1.0, 4), acstab::numeric_error);
    EXPECT_THROW(log_space(1.0, 10.0, 1), acstab::numeric_error);
}

TEST(lin_space, basic)
{
    const std::vector<real> g = lin_space(0.0, 1.0, 5);
    ASSERT_EQ(g.size(), 5u);
    EXPECT_NEAR(g[1], 0.25, 1e-15);
    EXPECT_NEAR(g[3], 0.75, 1e-15);
}

} // namespace
