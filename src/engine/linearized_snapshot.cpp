#include "engine/linearized_snapshot.h"

#include "common/error.h"
#include "spice/device.h"

namespace acstab::engine {

namespace {

    /// Stamp every device at one angular frequency.
    spice::system_builder<cplx> stamp_all(const spice::circuit& c, const std::vector<real>& op,
                                          real omega, const snapshot_options& opt)
    {
        spice::ac_params p;
        p.omega = omega;
        p.gmin = opt.gmin;
        p.exclusive_source = opt.exclusive_source;
        p.zero_all_sources = opt.zero_all_sources;

        spice::system_builder<cplx> b(c.unknown_count());
        for (const auto& dev : c.devices()) {
            if (opt.device_filter && !opt.device_filter(*dev)) {
                // Pin the excluded device's branch unknowns (current = 0)
                // so rows otherwise stamped only by it stay regular.
                for (std::size_t k = 0; k < dev->extra_unknown_count(); ++k)
                    b.add(dev->branch_unknown(k), dev->branch_unknown(k), cplx{1.0, 0.0});
                continue;
            }
            dev->stamp_ac(op, p, b);
        }
        if (opt.gshunt > 0.0)
            for (std::size_t i = 0; i < c.node_count(); ++i)
                b.add(static_cast<spice::node_id>(i), static_cast<spice::node_id>(i),
                      cplx{opt.gshunt, 0.0});
        return b;
    }

} // namespace

linearized_snapshot::linearized_snapshot(spice::circuit& c, const std::vector<real>& op,
                                         const snapshot_options& opt)
{
    c.finalize();
    if (op.size() != c.unknown_count())
        throw analysis_error("snapshot: operating point has wrong size");
    n_ = c.unknown_count();
    nodes_ = c.node_count();

    // Two stamp passes bracket the affine frequency dependence exactly:
    // Y(w) = Y0 + w * (Y1 - Y0) reproduces a + j w c entry-wise.
    const spice::system_builder<cplx> b0 = stamp_all(c, op, 0.0, opt);
    const spice::system_builder<cplx> b1 = stamp_all(c, op, 1.0, opt);
    rhs_ = b0.rhs();

    const numeric::csc_matrix<cplx> y0(b0.matrix());
    const numeric::csc_matrix<cplx> y1(b1.matrix());

    // Merge the two (sorted) patterns column by column; align both value
    // sets to the union so the per-frequency fill is a flat fused loop.
    col_ptr_.assign(n_ + 1, 0);
    row_idx_.reserve(y1.nnz());
    gvals_.reserve(y1.nnz());
    bvals_.reserve(y1.nnz());
    for (std::size_t col = 0; col < n_; ++col) {
        std::size_t p0 = y0.col_ptr()[col];
        const std::size_t e0 = y0.col_ptr()[col + 1];
        std::size_t p1 = y1.col_ptr()[col];
        const std::size_t e1 = y1.col_ptr()[col + 1];
        while (p0 < e0 || p1 < e1) {
            const std::size_t r0 = p0 < e0 ? y0.row_idx()[p0] : n_;
            const std::size_t r1 = p1 < e1 ? y1.row_idx()[p1] : n_;
            const std::size_t row = std::min(r0, r1);
            const cplx v0 = r0 == row ? y0.values()[p0++] : cplx{};
            const cplx v1 = r1 == row ? y1.values()[p1++] : cplx{};
            row_idx_.push_back(row);
            gvals_.push_back(v0);
            bvals_.push_back(v1 - v0);
        }
        col_ptr_[col + 1] = row_idx_.size();
    }
}

numeric::csc_matrix<cplx> linearized_snapshot::make_workspace() const
{
    return numeric::csc_matrix<cplx>(n_, n_, col_ptr_, row_idx_,
                                     std::vector<cplx>(row_idx_.size()));
}

void linearized_snapshot::assemble(real omega, numeric::csc_matrix<cplx>& out) const
{
    std::vector<cplx>& v = out.values_mut();
    if (v.size() != gvals_.size())
        throw analysis_error("snapshot: workspace does not match this snapshot");
    for (std::size_t k = 0; k < v.size(); ++k)
        v[k] = gvals_[k] + omega * bvals_[k];
}

linearized_snapshot::real_pencil linearized_snapshot::pencil() const
{
    std::vector<real> g(gvals_.size());
    std::vector<real> c(bvals_.size());
    for (std::size_t k = 0; k < g.size(); ++k) {
        g[k] = gvals_[k].real();
        c[k] = bvals_[k].imag();
    }
    return {numeric::csc_matrix<real>(n_, n_, col_ptr_, row_idx_, std::move(g)),
            numeric::csc_matrix<real>(n_, n_, col_ptr_, row_idx_, std::move(c))};
}

std::shared_ptr<const numeric::symbolic_lu<cplx>>
linearized_snapshot::shared_symbolic(real omega_ref, numeric::column_ordering ordering) const
{
    const std::lock_guard<std::mutex> lock(symbolic_mutex_);
    if (symbolic_ == nullptr || symbolic_omega_ != omega_ref
        || symbolic_ordering_ != ordering) {
        numeric::csc_matrix<cplx> work = make_workspace();
        assemble(omega_ref, work);
        numeric::lu_options sopt;
        sopt.ordering = ordering;
        symbolic_ = std::make_shared<const numeric::symbolic_lu<cplx>>(work, sopt);
        symbolic_omega_ = omega_ref;
        symbolic_ordering_ = ordering;
    }
    return symbolic_;
}

} // namespace acstab::engine
