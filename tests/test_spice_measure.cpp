// Waveform measurements: dB/phase, step metrics, Bode margins.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "numeric/interpolation.h"
#include "numeric/rational.h"
#include "spice/measure.h"

namespace {

using namespace acstab;
using namespace acstab::spice;

TEST(measure, db20_values)
{
    EXPECT_NEAR(db20(1.0), 0.0, 1e-12);
    EXPECT_NEAR(db20(10.0), 20.0, 1e-12);
    EXPECT_NEAR(db20(0.01), -40.0, 1e-12);
}

TEST(measure, phase_unwrap_monotone_lag)
{
    // Three cascaded poles accumulate -270 degrees; unwrapping must not
    // fold the phase back.
    const auto h = [](real w) {
        const cplx p{1.0, w};
        return cplx{1.0, 0.0} / (p * p * p);
    };
    std::vector<cplx> resp;
    std::vector<real> freqs = numeric::log_space(0.01, 100.0, 100);
    for (const real w : freqs)
        resp.push_back(h(w));
    const std::vector<real> ph = phase_deg_unwrapped(resp);
    EXPECT_NEAR(ph.front(), 0.0, 2.0);
    EXPECT_NEAR(ph.back(), -3.0 * 90.0, 3.0);
    for (std::size_t i = 1; i < ph.size(); ++i)
        EXPECT_LE(ph[i], ph[i - 1] + 1e-9);
}

TEST(measure, overshoot_of_damped_sine)
{
    // y(t) = 1 - exp(-z wn t) cos(wd t)/..., sampled analytically.
    const real zeta = 0.3;
    const real wn = 1.0;
    const real wd = wn * std::sqrt(1.0 - zeta * zeta);
    std::vector<real> t;
    std::vector<real> y;
    for (int i = 0; i < 4000; ++i) {
        const real tt = i * 0.01;
        t.push_back(tt);
        y.push_back(1.0
                    - std::exp(-zeta * wn * tt)
                        * (std::cos(wd * tt) + zeta / std::sqrt(1.0 - zeta * zeta)
                               * std::sin(wd * tt)));
    }
    const real os = overshoot_percent(y, 0.0, 1.0);
    EXPECT_NEAR(os, 100.0 * std::exp(-pi * zeta / std::sqrt(1.0 - zeta * zeta)), 0.5);
    const real fr = ringing_frequency(t, y, 1.0);
    EXPECT_NEAR(fr, wd / two_pi, 0.05 * wd / two_pi);
}

TEST(measure, overshoot_negative_going_step)
{
    std::vector<real> y{1.0, 0.5, -0.2, 0.05, 0.0, 0.0};
    // Step from 1 to 0: peak undershoot -0.2 -> overshoot 20 %.
    EXPECT_NEAR(overshoot_percent(y, 1.0, 0.0), 20.0, 1e-9);
}

TEST(measure, final_value_tail_mean)
{
    std::vector<real> y(100, 3.0);
    y[0] = 100.0;
    EXPECT_NEAR(final_value(y), 3.0, 1e-12);
}

TEST(measure, settling_time)
{
    std::vector<real> t;
    std::vector<real> y;
    for (int i = 0; i <= 100; ++i) {
        t.push_back(static_cast<real>(i));
        y.push_back(i < 40 ? 2.0 : 1.0); // settles exactly at t = 40
    }
    EXPECT_NEAR(settling_time(t, y, 1.0), 40.0, 1e-12);
}

TEST(measure, margins_of_integrator_loop)
{
    // L(s) = wc/s: crossover at wc with 90 degrees of phase margin and no
    // -180 crossing.
    const real fc = 1e4;
    std::vector<real> freqs = numeric::log_space(1e2, 1e6, 200);
    std::vector<cplx> loop;
    for (const real f : freqs)
        loop.push_back(cplx{0.0, -1.0} * (fc / f));
    const bode_margins m = margins(freqs, loop);
    ASSERT_TRUE(m.has_unity_crossing);
    EXPECT_NEAR(m.unity_freq_hz, fc, fc * 0.02);
    EXPECT_NEAR(m.phase_margin_deg, 90.0, 0.5);
    EXPECT_FALSE(m.has_phase_crossing);
}

TEST(measure, margins_of_three_pole_loop)
{
    // L(s) = 100 / (1 + s/w0)^3: analytic PM/GM available.
    const real f0 = 1e3;
    std::vector<real> freqs = numeric::log_space(10.0, 1e6, 400);
    std::vector<cplx> loop;
    for (const real f : freqs) {
        const cplx den = std::pow(cplx{1.0, f / f0}, 3);
        loop.push_back(cplx{100.0, 0.0} / den);
    }
    const bode_margins m = margins(freqs, loop);
    ASSERT_TRUE(m.has_unity_crossing);
    ASSERT_TRUE(m.has_phase_crossing);
    // |L| = 1 at w/w0 = sqrt(100^(2/3) - 1) ~ 4.53.
    EXPECT_NEAR(m.unity_freq_hz, 4.53e3, 0.1e3);
    // Phase -180 at w/w0 = tan(60 deg) = sqrt(3).
    EXPECT_NEAR(m.phase_cross_freq_hz, std::sqrt(3.0) * f0, 0.05e3);
    // GM = -20log10(100/8) = -21.9 -> gain margin is negative (unstable).
    EXPECT_NEAR(m.gain_margin_db, -20.0 * std::log10(100.0 / 8.0), 0.5);
}

TEST(measure, phase_margin_immune_to_pre_window_wrap)
{
    // Three real poles at 1k/10k/100k with gain 1e4: the phase wraps
    // through -180 degrees at ~33 kHz, well below the ~208 kHz crossover,
    // so the loop is unstable with PM ~ -61 degrees. A sweep window that
    // opens ABOVE the wrap (fstart = 100 kHz, true phase there ~ -219)
    // anchors the unwrap 360 degrees high; the margin must still come out
    // in (-180, 180] and match the full-window answer.
    const auto loop_at = [](real f) {
        const cplx s{0.0, two_pi * f};
        const auto pole = [&s](real p) { return 1.0 / (1.0 + s / (two_pi * p)); };
        return 1e4 * pole(1e3) * pole(1e4) * pole(1e5);
    };
    const auto sweep_margins = [&](real fstart) {
        const std::vector<real> freqs = numeric::log_grid(fstart, 1e9, 50);
        std::vector<cplx> loop(freqs.size());
        for (std::size_t i = 0; i < freqs.size(); ++i)
            loop[i] = loop_at(freqs[i]);
        return margins(freqs, loop);
    };

    const bode_margins full = sweep_margins(1e2);
    ASSERT_TRUE(full.has_unity_crossing);
    EXPECT_NEAR(full.phase_margin_deg, -61.3, 1.0);

    const bode_margins clipped = sweep_margins(1e5);
    ASSERT_TRUE(clipped.has_unity_crossing);
    EXPECT_NEAR(clipped.unity_freq_hz, full.unity_freq_hz, full.unity_freq_hz * 0.02);
    // The seed code reported 298.7 degrees here (-61.3 + 360).
    EXPECT_NEAR(clipped.phase_margin_deg, full.phase_margin_deg, 1.0);
    EXPECT_LE(clipped.phase_margin_deg, 180.0);
    EXPECT_GT(clipped.phase_margin_deg, -180.0);
}

TEST(measure, gain_margin_found_modulo_360)
{
    // Synthetic loop whose true phase rises from -210 through -150 (so it
    // crosses -180). The first sample's principal-value argument is +150,
    // anchoring the unwrap 360 degrees high: the unwrapped samples cross
    // +180 instead, and the -180 "mod 360" crossing must still be
    // reported with the right frequency and gain margin.
    std::vector<real> freqs;
    std::vector<cplx> loop;
    const std::size_t n = 101;
    for (std::size_t i = 0; i < n; ++i) {
        const real t = static_cast<real>(i) / static_cast<real>(n - 1);
        freqs.push_back(1e3 * std::pow(10.0, 2.0 * t)); // 1k .. 100k
        const real phase_deg = -210.0 + 60.0 * t;       // true -210 -> -150
        const real mag = std::pow(10.0, -t);            // 0 dB -> -20 dB
        loop.push_back(std::polar(mag, phase_deg * pi / 180.0));
    }
    const bode_margins m = margins(freqs, loop);
    ASSERT_TRUE(m.has_phase_crossing);
    // Phase passes +180 (= -180 mod 360) at t = 0.5 -> f = 10 kHz, where
    // |L| = -10 dB, i.e. a gain margin of +10 dB.
    EXPECT_NEAR(m.phase_cross_freq_hz, 1e4, 0.05e4);
    EXPECT_NEAR(m.gain_margin_db, 10.0, 0.3);
}

TEST(measure, error_handling)
{
    std::vector<real> empty;
    EXPECT_THROW((void)overshoot_percent(empty, 0.0, 1.0), analysis_error);
    std::vector<real> one{1.0};
    EXPECT_THROW((void)overshoot_percent(one, 0.5, 0.5), analysis_error);
    EXPECT_THROW((void)final_value(empty), analysis_error);
    std::vector<real> t{0.0, 1.0};
    std::vector<cplx> h{{1.0, 0.0}};
    EXPECT_THROW((void)margins(t, h), analysis_error);
}

} // namespace
