// Bipolar junction transistor: Ebers–Moll transport model with forward
// Early effect, junction (depletion) capacitances and tf/tr diffusion
// capacitances. NPN and PNP share the code via a polarity flip.
//
// Simplifications vs full Gummel–Poon (documented in DESIGN.md): no
// high-injection roll-off (IKF/IKR), no base resistance, no substrate
// junction. These do not affect the small-signal loop dynamics the paper's
// method probes at the bias points used here.
#ifndef ACSTAB_SPICE_DEVICES_BJT_H
#define ACSTAB_SPICE_DEVICES_BJT_H

#include "spice/device.h"
#include "spice/devices/companion.h"

namespace acstab::spice {

enum class bjt_polarity { npn, pnp };

struct bjt_model {
    bjt_polarity polarity = bjt_polarity::npn;
    real is = 1e-16;  ///< transport saturation current [A]
    real bf = 100.0;  ///< forward beta
    real br = 1.0;    ///< reverse beta
    real nf = 1.0;    ///< forward emission coefficient
    real nr = 1.0;    ///< reverse emission coefficient
    real vaf = 0.0;   ///< forward Early voltage [V], 0 = infinite
    real cje = 0.0;   ///< B-E zero-bias depletion capacitance [F]
    real vje = 0.75;  ///< B-E junction potential [V]
    real mje = 0.33;  ///< B-E grading coefficient
    real cjc = 0.0;   ///< B-C zero-bias depletion capacitance [F]
    real vjc = 0.75;  ///< B-C junction potential [V]
    real mjc = 0.33;  ///< B-C grading coefficient
    real fc = 0.5;    ///< forward-bias depletion threshold
    real tf = 0.0;    ///< forward transit time [s]
    real tr = 0.0;    ///< reverse transit time [s]
    real temp = 27.0; ///< device temperature [C]
};

/// Small-signal quantities at the operating point (for reports/tests).
struct bjt_small_signal {
    real gm = 0.0;   ///< d(ic)/d(vbe)
    real gpi = 0.0;  ///< d(ib)/d(vbe)
    real gmu = 0.0;  ///< d(ib)/d(vbc)
    real go = 0.0;   ///< -d(ic)/d(vce) contribution (output conductance)
    real cbe = 0.0;  ///< total B-E capacitance
    real cbc = 0.0;  ///< total B-C capacitance
    real ic = 0.0;
    real ib = 0.0;
};

/// Node order: collector, base, emitter.
class bjt final : public device {
public:
    bjt(std::string name, node_id collector, node_id base, node_id emitter, bjt_model model);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "bjt"; }
    [[nodiscard]] const bjt_model& model() const noexcept { return model_; }

    void dc_begin() override;
    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

    void tran_begin(const std::vector<real>& op) override;
    void stamp_tran(const std::vector<real>& x, const tran_params& p,
                    system_builder<real>& b) override;
    void tran_accept(const std::vector<real>& x, const tran_params& p) override;

    /// Small-signal parameters at an operating point (diagnostics).
    [[nodiscard]] bjt_small_signal small_signal(const std::vector<real>& op) const;

private:
    struct eval_result {
        real ic = 0.0; ///< internal collector current (NPN orientation)
        real ib = 0.0;
        real dic_dvbe = 0.0;
        real dic_dvbc = 0.0;
        real dib_dvbe = 0.0;
        real dib_dvbc = 0.0;
        real cbe = 0.0;
        real cbc = 0.0;
    };
    [[nodiscard]] eval_result evaluate(real vbe, real vbc) const noexcept;
    /// Stamp the Newton linearization at x (junction voltages limited);
    /// returns the evaluation at the limited voltages it stamped.
    eval_result stamp_linearized(const std::vector<real>& x, const stamp_params& p,
                                 system_builder<real>& b);

    bjt_model model_;
    real pol_ = 1.0;
    /// Junction limiter thresholds (pnjlim's vcrit) of the forward and
    /// reverse junctions: functions of the fixed model alone, so they are
    /// computed once instead of two logarithms per stamp.
    real vcrit_f_ = 0.0;
    real vcrit_r_ = 0.0;
    real vbe_state_ = 0.0;
    real vbc_state_ = 0.0;
    companion_cap cap_be_;
    companion_cap cap_bc_;
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_BJT_H
