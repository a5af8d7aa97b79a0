// Abstract device interface and the MNA stamping builder.
//
// Every analysis drives devices through four entry points:
//   stamp_dc   — large-signal Newton linearization at a candidate solution
//   stamp_ac   — small-signal complex stamps at the DC operating point
//   stamp_tran — companion-model stamps for one time step
//   tran_*     — integrator state management around accepted steps
#ifndef ACSTAB_SPICE_DEVICE_H
#define ACSTAB_SPICE_DEVICE_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "numeric/sparse_matrix.h"

namespace acstab::spice {

/// Index of an MNA unknown; negative means ground (stamps are dropped).
using node_id = int;
inline constexpr node_id ground_node = -1;

class circuit;
class device;

/// Accumulates MNA stamps for one linear solve.
template <class T>
class system_builder {
public:
    explicit system_builder(std::size_t n) : matrix_(n, n), rhs_(n, T{}) {}

    [[nodiscard]] std::size_t size() const noexcept { return rhs_.size(); }

    void add(node_id row, node_id col, T value)
    {
        if (row >= 0 && col >= 0)
            matrix_.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col), value);
    }

    /// Two-terminal conductance stamp between nodes a and b.
    void conductance(node_id a, node_id b, T g)
    {
        add(a, a, g);
        add(b, b, g);
        add(a, b, -g);
        add(b, a, -g);
    }

    /// Transconductance stamp: current g*(vc - vd) flowing from node a to
    /// node b (out of a, into b).
    void transconductance(node_id a, node_id b, node_id c, node_id d, T g)
    {
        add(a, c, g);
        add(a, d, -g);
        add(b, c, -g);
        add(b, d, g);
    }

    void rhs_add(node_id row, T value)
    {
        if (row >= 0)
            rhs_[static_cast<std::size_t>(row)] += value;
    }

    /// Record that a device's Newton limiter (pnjlim) moved a junction
    /// voltage in this stamp pass: the linearization is not at the
    /// candidate solution, so the iteration cannot count as converged
    /// (SPICE's CKTnoncon). Per builder, so concurrent DC solves never
    /// share a count.
    void note_limited() noexcept { ++limited_; }
    [[nodiscard]] std::size_t limited() const noexcept { return limited_; }
    void clear_limited() noexcept { limited_ = 0; }

    [[nodiscard]] numeric::triplet_matrix<T>& matrix() noexcept { return matrix_; }
    [[nodiscard]] const numeric::triplet_matrix<T>& matrix() const noexcept { return matrix_; }
    [[nodiscard]] std::vector<T>& rhs() noexcept { return rhs_; }
    [[nodiscard]] const std::vector<T>& rhs() const noexcept { return rhs_; }

private:
    numeric::triplet_matrix<T> matrix_;
    std::vector<T> rhs_;
    std::size_t limited_ = 0;
};

/// Per-stamp analysis context shared by DC and transient.
struct stamp_params {
    /// Junction shunt conductance for convergence (SPICE GMIN).
    real gmin = 1e-12;
    /// True while gmin/source stepping is active (devices may relax).
    bool continuation = false;
    /// Source scale factor in [0,1] for source stepping; 1 = full value.
    real source_scale = 1.0;
};

/// Small-signal stamp context.
struct ac_params {
    real omega = 0.0;
    real gmin = 1e-12;
    /// When non-null, only this device contributes its AC stimulus; all
    /// other independent sources are AC-zeroed (paper's "auto-zero all AC
    /// sources / stimuli in design prior to running the analysis").
    const device* exclusive_source = nullptr;
    /// Zero every AC stimulus (the stability sweep injects its own
    /// right-hand side directly).
    bool zero_all_sources = false;
};

/// One transient step description (times refer to the step being solved).
struct tran_params {
    real t0 = 0.0;     ///< previous accepted time
    real t1 = 0.0;     ///< time being solved
    real dt = 0.0;     ///< t1 - t0
    bool use_be = false; ///< backward Euler (first step / post-breakpoint)
    stamp_params dc;   ///< nested DC context (gmin etc.)
};

/// Voltage across two unknowns of a candidate solution (ground-aware).
[[nodiscard]] inline real unknown_voltage(const std::vector<real>& x, node_id a, node_id b) noexcept
{
    const real va = a >= 0 ? x[static_cast<std::size_t>(a)] : 0.0;
    const real vb = b >= 0 ? x[static_cast<std::size_t>(b)] : 0.0;
    return va - vb;
}

class device {
public:
    device(std::string name, std::vector<node_id> nodes)
        : name_(std::move(name)), nodes_(std::move(nodes))
    {
    }
    virtual ~device() = default;
    device(const device&) = delete;
    device& operator=(const device&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] virtual std::string_view type_name() const noexcept = 0;
    [[nodiscard]] const std::vector<node_id>& nodes() const noexcept { return nodes_; }

    /// Number of branch-current unknowns this device needs.
    [[nodiscard]] virtual std::size_t extra_unknown_count() const noexcept { return 0; }

    /// Called by circuit::finalize with the first branch index.
    virtual void assign_extra_unknowns(node_id first) { first_extra_ = first; }

    /// Resolve references to other devices (controlled sources). Called by
    /// circuit::finalize after all devices exist.
    virtual void bind(const circuit&) {}

    /// Reset Newton helper state (junction limiting history) before a new
    /// DC solve.
    virtual void dc_begin() {}

    virtual void stamp_dc(const std::vector<real>& x, const stamp_params& p,
                          system_builder<real>& b)
        = 0;

    virtual void stamp_ac(const std::vector<real>& op, const ac_params& p,
                          system_builder<cplx>& b) const
        = 0;

    /// Initialize integrator state from the DC operating point.
    virtual void tran_begin(const std::vector<real>& op) { (void)op; }

    /// Companion-model stamp; default: behave like DC (resistive devices).
    virtual void stamp_tran(const std::vector<real>& x, const tran_params& p,
                            system_builder<real>& b)
    {
        stamp_dc(x, p.dc, b);
    }

    /// Commit integrator state after a step is accepted at solution x.
    virtual void tran_accept(const std::vector<real>& x, const tran_params& p)
    {
        (void)x;
        (void)p;
    }

    /// True when this device is an ideal voltage source (used to find
    /// source-forced nodes that the stability sweep must skip).
    [[nodiscard]] virtual bool is_ideal_voltage_source() const noexcept { return false; }

    /// Name of the voltage source whose branch current this device's
    /// equation reads (the current-controlled sources); empty for every
    /// other device.
    [[nodiscard]] virtual std::string_view controlling_source() const noexcept { return {}; }

    /// Index of this device's k-th branch-current unknown (valid after
    /// circuit::finalize for k < extra_unknown_count()). Lets analyses
    /// that stamp a FILTERED device subset (impedance partitions) pin the
    /// branch rows of excluded devices so the system stays non-singular.
    [[nodiscard]] node_id branch_unknown(std::size_t k = 0) const noexcept { return extra(k); }

    /// Append waveform slope discontinuities in (0, tstop); the transient
    /// engine aligns time steps with them.
    virtual void collect_breakpoints(real tstop, std::vector<real>& out) const
    {
        (void)tstop;
        (void)out;
    }

protected:
    [[nodiscard]] node_id extra(std::size_t k = 0) const noexcept
    {
        return first_extra_ + static_cast<node_id>(k);
    }

private:
    std::string name_;
    std::vector<node_id> nodes_;
    node_id first_extra_ = -1;
};

} // namespace acstab::spice

#endif // ACSTAB_SPICE_DEVICE_H
