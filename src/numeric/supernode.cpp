#include "numeric/supernode.h"

#include <algorithm>

namespace acstab::numeric {

namespace {

/// Greedy left-to-right relaxed amalgamation over a strict partition.
/// Adjacent supernodes merge while the merged panel stays within
/// max_width and the explicit zeros the merge pads into its L area stay
/// within the caller's bounds. The merged sub-row pattern is the union
/// of the members' patterns restricted below the merged block (rows a
/// member kept below its own block but above the merged end move into
/// the diagonal block). Zeros are counted against the merged panel's
/// full L area — dense lower triangle plus width * |union sub-rows| —
/// versus the true structural L count, so a group stops growing once
/// padding would outweigh the scatter savings.
supernode_partition amalgamate(std::size_t n, const supernode_partition& strict,
                               std::size_t max_width, std::size_t relax_zeros,
                               double relax_fill)
{
    supernode_partition out;
    out.col_super.assign(n, 0);
    out.row_ptr.push_back(0);

    const auto tri = [](std::size_t w) { return w * (w - 1) / 2; };
    const auto true_l = [&](std::size_t s) {
        // Structural L entries of strict supernode s: its diagonal block
        // is fully dense below the diagonal (patterns nest), plus the
        // shared sub-rows under every member column.
        const std::size_t w = strict.width(s);
        return tri(w) + w * strict.sub_rows(s);
    };
    const auto rows_begin = [&](std::size_t s) {
        return strict.rows.begin() + static_cast<std::ptrdiff_t>(strict.row_ptr[s]);
    };
    const auto rows_end = [&](std::size_t s) {
        return strict.rows.begin() + static_cast<std::ptrdiff_t>(strict.row_ptr[s + 1]);
    };

    // Current group: strict supernodes [a, cur_end) columns, union
    // sub-row pattern uni (sorted, all >= cur_end), structural L count.
    std::size_t a = 0;
    std::size_t cur_end = strict.first[1];
    std::vector<std::size_t> uni(rows_begin(0), rows_end(0));
    std::vector<std::size_t> merged;
    std::size_t group_true = true_l(0);

    const auto emit = [&](std::size_t end) {
        const std::size_t s = out.first.size();
        out.first.push_back(a);
        for (std::size_t k = a; k < end; ++k)
            out.col_super[k] = s;
        out.rows.insert(out.rows.end(), uni.begin(), uni.end());
        out.row_ptr.push_back(out.rows.size());
    };

    for (std::size_t s = 1; s < strict.count(); ++s) {
        const std::size_t c = strict.first[s];
        const std::size_t d = strict.first[s + 1];
        if (d - a <= max_width) {
            // Candidate union: uni's rows at or past d (those in [c, d)
            // are absorbed into the merged diagonal block) merged with
            // the next supernode's pattern (all >= d by construction).
            const auto keep = std::lower_bound(uni.begin(), uni.end(), d);
            merged.clear();
            std::set_union(keep, uni.end(), rows_begin(s), rows_end(s),
                           std::back_inserter(merged));
            const std::size_t w = d - a;
            const std::size_t dense = tri(w) + w * merged.size();
            const std::size_t truth = group_true + true_l(s);
            const std::size_t zeros = dense - std::min(dense, truth);
            if (zeros <= relax_zeros
                || static_cast<double>(zeros) <= relax_fill * static_cast<double>(dense)) {
                cur_end = d;
                uni.swap(merged);
                group_true = truth;
                continue;
            }
        }
        emit(cur_end);
        a = c;
        cur_end = d;
        uni.assign(rows_begin(s), rows_end(s));
        group_true = true_l(s);
    }
    emit(cur_end);
    out.first.push_back(n);
    return out;
}

} // namespace

supernode_partition detect_supernodes(std::size_t n, const std::vector<std::size_t>& lcol_ptr,
                                      const std::vector<std::size_t>& lrow,
                                      std::size_t max_width, std::size_t relax_zeros,
                                      double relax_fill)
{
    supernode_partition sn;
    sn.col_super.assign(n, 0);
    sn.row_ptr.push_back(0);
    if (n == 0) {
        sn.first.push_back(0);
        return sn;
    }
    if (max_width == 0)
        max_width = 1;

    // Stamp array over pivot rows: stamp[r] == clock while r is in the
    // pattern of the current supernode's last accepted column. lrow is
    // unsorted within a column, so membership tests go through stamps
    // rather than ordered comparison.
    std::vector<std::size_t> stamp(n, 0);
    std::size_t clock = 0;

    const auto stamp_column = [&](std::size_t k) {
        ++clock;
        for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p)
            stamp[lrow[p]] = clock;
    };

    std::size_t start = 0;
    stamp_column(0);
    const auto close_run = [&](std::size_t end) {
        // end is one past the last column of the finished supernode.
        const std::size_t s = sn.first.size();
        sn.first.push_back(start);
        for (std::size_t k = start; k < end; ++k)
            sn.col_super[k] = s;
        // The shared sub-diagonal pattern is the LAST column's, sorted
        // ascending so panel rows have one canonical order.
        const std::size_t last = end - 1;
        sn.rows.insert(sn.rows.end(), lrow.begin() + static_cast<std::ptrdiff_t>(lcol_ptr[last]),
                       lrow.begin() + static_cast<std::ptrdiff_t>(lcol_ptr[last + 1]));
        std::sort(sn.rows.begin() + static_cast<std::ptrdiff_t>(sn.row_ptr.back()),
                  sn.rows.end());
        sn.row_ptr.push_back(sn.rows.size());
        start = end;
    };

    for (std::size_t k = 1; k < n; ++k) {
        const std::size_t prev_nnz = lcol_ptr[k] - lcol_ptr[k - 1];
        const std::size_t cur_nnz = lcol_ptr[k + 1] - lcol_ptr[k];
        bool extends = k - start < max_width && cur_nnz + 1 == prev_nnz
            && stamp[k] == clock;
        if (extends) {
            // P(k) must be P(k-1) \ {k}; sizes already match, so subset
            // suffices.
            for (std::size_t p = lcol_ptr[k]; extends && p < lcol_ptr[k + 1]; ++p)
                extends = stamp[lrow[p]] == clock;
        }
        if (!extends)
            close_run(k);
        stamp_column(k);
    }
    close_run(n);
    sn.first.push_back(n); // sentinel: first[count()] == n
    if ((relax_zeros == 0 && relax_fill <= 0.0) || sn.count() < 2)
        return sn;
    return amalgamate(n, sn, max_width, relax_zeros, relax_fill);
}

supernode_plan plan_supernodal_lu(const supernode_partition& sn,
                                  const std::vector<std::size_t>& lcol_ptr,
                                  const std::vector<std::size_t>& lrow,
                                  const std::vector<std::size_t>& ucol_ptr,
                                  const std::vector<std::size_t>& urow)
{
    supernode_plan plan;
    const std::size_t n = sn.col_super.size();
    const std::size_t ns = sn.count();

    plan.panel_off.assign(ns + 1, 0);
    plan.panel_ld.assign(ns, 0);
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t w = sn.width(s);
        plan.panel_ld[s] = w + sn.sub_rows(s);
        plan.panel_off[s + 1] = plan.panel_off[s] + plan.panel_ld[s] * w;
        plan.max_width = std::max(plan.max_width, w);
        plan.max_sub = std::max(plan.max_sub, sn.sub_rows(s));
    }

    // Panel row of every CSC L entry within its column's supernode:
    // in-block rows map to their offset in the diagonal block, sub-rows
    // to width + their slot in the supernode's sorted sub-row list.
    plan.lpanel_pos.resize(lrow.size());
    std::vector<std::size_t> slot(n, 0);
    for (std::size_t s = 0; s < ns; ++s) {
        const std::size_t f = sn.first[s];
        const std::size_t e = sn.first[s + 1];
        for (std::size_t r = sn.row_ptr[s]; r < sn.row_ptr[s + 1]; ++r)
            slot[sn.rows[r]] = (e - f) + (r - sn.row_ptr[s]);
        for (std::size_t k = f; k < e; ++k)
            for (std::size_t p = lcol_ptr[k]; p < lcol_ptr[k + 1]; ++p)
                plan.lpanel_pos[p] = lrow[p] < e ? lrow[p] - f : slot[lrow[p]];
    }

    // First in-block U entry of each column (rows >= its supernode's
    // first column); the entries before it come from other supernodes.
    plan.u_split.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t f = sn.first[sn.col_super[k]];
        std::size_t p = ucol_ptr[k];
        const std::size_t ulast = ucol_ptr[k + 1] - 1;
        while (p < ulast && urow[p] < f)
            ++p;
        plan.u_split[k] = p;
    }

    plan.pair_ptr.assign(ns + 1, 0);
    plan.above_rows.assign(ns, 0);
    // (source, target column, first row of the column's entries in it,
    // that entry's CSC position).
    struct hit {
        std::size_t source;
        std::size_t col;
        std::size_t row;
        std::size_t p;
    };
    std::vector<hit> hits;
    // Destinations of the current target's rows; a stamp of t + 1 marks
    // the rows target t actually covers.
    std::vector<std::uint32_t> above_at(n, 0);
    std::vector<std::uint32_t> panel_at(n, 0);
    std::vector<std::size_t> above_stamp(n, 0);
    std::vector<std::size_t> panel_stamp(n, 0);
    for (std::size_t t = 0; t < ns; ++t) {
        const std::size_t ft = sn.first[t];
        const std::size_t et = sn.first[t + 1];
        const std::size_t wt = et - ft;
        hits.clear();
        for (std::size_t k = ft; k < et; ++k) {
            std::size_t p = ucol_ptr[k];
            const std::size_t end = plan.u_split[k];
            while (p < end) {
                const std::size_t s = sn.col_super[urow[p]];
                hits.push_back({s, k - ft, urow[p], p});
                while (p < end && urow[p] < sn.first[s + 1])
                    ++p;
            }
        }
        std::sort(hits.begin(), hits.end(), [](const hit& x, const hit& y) {
            return x.source != y.source ? x.source < y.source : x.col < y.col;
        });

        const std::size_t first_pair = plan.pairs.size();
        std::size_t na = 0;
        for (std::size_t h = 0; h < hits.size();) {
            supernode_plan::pair pr{};
            pr.source = hits[h].source;
            pr.span = hits[h].row;
            pr.above = na;
            pr.cols = plan.cols.size();
            for (; h < hits.size() && hits[h].source == pr.source; ++h) {
                pr.span = std::min(pr.span, hits[h].row);
                plan.cols.push_back(static_cast<std::uint32_t>(hits[h].col));
                plan.ucsc.push_back(hits[h].p);
            }
            pr.ncols = plan.cols.size() - pr.cols;
            const std::size_t m = sn.first[pr.source + 1] - pr.span;
            for (std::size_t r = pr.span; r < pr.span + m; ++r) {
                above_at[r] = static_cast<std::uint32_t>(na + (r - pr.span));
                above_stamp[r] = t + 1;
            }
            na += m;
            plan.pairs.push_back(pr);
        }
        plan.pair_ptr[t + 1] = plan.pairs.size();
        plan.above_rows[t] = na;
        if (na != 0)
            plan.max_above = std::max(plan.max_above, (na + 1) * wt);

        for (std::size_t i = 0; i < wt; ++i) {
            panel_at[ft + i] = static_cast<std::uint32_t>(i);
            panel_stamp[ft + i] = t + 1;
        }
        for (std::size_t z = sn.row_ptr[t]; z < sn.row_ptr[t + 1]; ++z) {
            panel_at[sn.rows[z]] = static_cast<std::uint32_t>(wt + (z - sn.row_ptr[t]));
            panel_stamp[sn.rows[z]] = t + 1;
        }
        const std::size_t last_row = sn.sub_rows(t) != 0 ? sn.rows[sn.row_ptr[t + 1] - 1] : et - 1;
        for (std::size_t q = first_pair; q < plan.pairs.size(); ++q) {
            supernode_plan::pair& pr = plan.pairs[q];
            const auto rs = sn.rows.begin() + static_cast<std::ptrdiff_t>(sn.row_ptr[pr.source]);
            const auto re = sn.rows.begin() + static_cast<std::ptrdiff_t>(sn.row_ptr[pr.source + 1]);
            const auto cover = std::upper_bound(rs, re, last_row);
            pr.nrows = static_cast<std::size_t>(cover - rs);
            pr.nabove = static_cast<std::size_t>(std::lower_bound(rs, cover, ft) - rs);
            pr.map = plan.rowmap.size();
            for (auto r = rs; r != cover; ++r) {
                if (*r < ft)
                    plan.rowmap.push_back(above_stamp[*r] == t + 1 ? above_at[*r]
                                                                    : static_cast<std::uint32_t>(na));
                else
                    plan.rowmap.push_back(panel_stamp[*r] == t + 1 ? panel_at[*r] : 0);
            }
        }
    }
    return plan;
}

} // namespace acstab::numeric
