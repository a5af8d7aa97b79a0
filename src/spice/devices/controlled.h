// Linear controlled sources: VCVS (E), VCCS (G), CCCS (F), CCVS (H).
// Current-controlled elements reference the branch current of a named
// voltage source, resolved during circuit::finalize via bind().
#ifndef ACSTAB_SPICE_DEVICES_CONTROLLED_H
#define ACSTAB_SPICE_DEVICES_CONTROLLED_H

#include "spice/device.h"

namespace acstab::spice {

/// Voltage-controlled voltage source: v(p,m) = gain * v(cp,cm).
class vcvs final : public device {
public:
    vcvs(std::string name, node_id p, node_id m, node_id cp, node_id cm, real gain);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "vcvs"; }
    [[nodiscard]] real gain() const noexcept { return gain_; }
    void set_gain(real gain) noexcept { gain_ = gain; }
    [[nodiscard]] std::size_t extra_unknown_count() const noexcept override { return 1; }
    [[nodiscard]] node_id branch() const noexcept { return extra(0); }

    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

private:
    real gain_;
};

/// Voltage-controlled current source: i(p->m) = gm * v(cp,cm).
class vccs final : public device {
public:
    vccs(std::string name, node_id p, node_id m, node_id cp, node_id cm, real gm);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "vccs"; }
    [[nodiscard]] real transconductance() const noexcept { return gm_; }
    void set_transconductance(real gm) noexcept { gm_ = gm; }

    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

private:
    real gm_;
};

/// Current-controlled current source: i(p->m) = gain * i(ctrl vsource).
class cccs final : public device {
public:
    cccs(std::string name, node_id p, node_id m, std::string ctrl_vsource, real gain);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "cccs"; }
    [[nodiscard]] std::string_view controlling_source() const noexcept override
    {
        return ctrl_name_;
    }
    void bind(const circuit& c) override;

    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

private:
    std::string ctrl_name_;
    node_id ctrl_branch_ = -1;
    real gain_;
};

/// Current-controlled voltage source: v(p,m) = r * i(ctrl vsource).
class ccvs final : public device {
public:
    ccvs(std::string name, node_id p, node_id m, std::string ctrl_vsource, real transresistance);

    [[nodiscard]] std::string_view type_name() const noexcept override { return "ccvs"; }
    [[nodiscard]] std::size_t extra_unknown_count() const noexcept override { return 1; }
    [[nodiscard]] node_id branch() const noexcept { return extra(0); }
    [[nodiscard]] std::string_view controlling_source() const noexcept override
    {
        return ctrl_name_;
    }
    void bind(const circuit& c) override;

    void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                  system_builder<real>& b) override;
    void stamp_ac(const std::vector<real>& op, const ac_params& p,
                  system_builder<cplx>& b) const override;

private:
    std::string ctrl_name_;
    node_id ctrl_branch_ = -1;
    real r_;
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICES_CONTROLLED_H
