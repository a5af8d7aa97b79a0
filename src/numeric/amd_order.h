// Fill-reducing column pre-ordering for the sparse LU: approximate
// minimum external degree on the symmetrized pattern A + A^T (AMD).
//
// A static ordering (e.g. ascending nonzero count) orders columns once
// by their input degree and never looks at the elimination again; on
// banded or 2-D-mesh-like MNA matrices (every interior node has the same
// degree) it degenerates to the natural order and fill grows like
// n * bandwidth. Minimum degree re-ranks the remaining columns after
// every elimination step using a quotient graph — eliminated pivots
// become *elements* whose adjacency is stored once instead of being
// scattered into every neighbor's list — which is the classical route to
// near-nested-dissection fill on meshes at a tiny analysis cost.
//
// approx_minimum_degree_order is the production AMD shape (Amestoy,
// Davis & Duff): supervariables (indistinguishable columns merged by
// adjacency hashing and eliminated together, i.e. multiple original
// columns per pivot step), the approximate external-degree bound (each
// element's contribution is measured once per pivot instead of once per
// reached variable), and aggressive element absorption. The ordering
// itself scales to hundreds of thousands of nodes.
//
// Deterministic by construction: ties in degree break on the smallest
// original index, so a given pattern always yields the same permutation
// on every platform (the farm's byte-identical merges depend on this).
//
// The LU pivots rows within the reach of each ordered column (threshold
// preference for the structural diagonal), so an ordering computed on
// the symmetric pattern stays valid for the mildly unsymmetric MNA case:
// it steers fill, never correctness.
#ifndef ACSTAB_NUMERIC_AMD_ORDER_H
#define ACSTAB_NUMERIC_AMD_ORDER_H

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

namespace acstab::numeric {

/// Approximate-minimum-degree permutation (AMD): supervariable merging
/// via adjacency hashing, the Amestoy/Davis/Duff approximate external
/// degree bound, and aggressive element absorption. Returns q with
/// q[k] = the column to eliminate at step k; merged columns are emitted
/// consecutively with their supervariable's principal. Deterministic:
/// degree ties break on the smallest original index and a merge always
/// keeps the smaller index as principal.
[[nodiscard]] inline std::vector<std::size_t>
approx_minimum_degree_order(std::size_t n, const std::vector<std::size_t>& col_ptr,
                            const std::vector<std::size_t>& row_idx)
{
    // Symmetrize: undirected adjacency of A + A^T without the diagonal.
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const std::size_t r = row_idx[p];
            if (r == c)
                continue;
            adj[c].push_back(r);
            adj[r].push_back(c);
        }
    }
    std::vector<std::size_t> stamp(n, 0);
    std::size_t clock = 0;
    for (auto& list : adj) {
        ++clock;
        std::size_t keep = 0;
        for (const std::size_t v : list) {
            if (stamp[v] == clock)
                continue;
            stamp[v] = clock;
            list[keep++] = v;
        }
        list.resize(keep);
    }

    // Supervariables: nv[v] original columns folded into principal v
    // (0 once v itself has been merged away); members chained through
    // mem_next/mem_tail and emitted together when the principal is
    // eliminated — the "multiple elimination" that makes one pivot step
    // retire a whole block of indistinguishable columns.
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::vector<std::size_t> nv(n, 1);
    std::vector<std::size_t> mem_next(n, none);
    std::vector<std::size_t> mem_tail(n);
    for (std::size_t v = 0; v < n; ++v)
        mem_tail[v] = v;
    std::vector<bool> eliminated(n, false); // principal chosen as pivot
    std::vector<bool> merged(n, false);     // absorbed into a supervariable

    // Quotient graph: live principal neighbors plus touched elements.
    std::vector<std::vector<std::size_t>> adjel(n);
    std::vector<std::vector<std::size_t>> elem_vars; // element -> members
    std::vector<bool> absorbed;                      // element -> dead
    std::vector<std::size_t> elem_w;                 // |Le \ Lp| scratch
    std::vector<std::size_t> elem_wstamp;            // validity clock for elem_w

    std::vector<std::size_t> degree(n);
    using entry = std::pair<std::size_t, std::size_t>;
    std::priority_queue<entry, std::vector<entry>, std::greater<entry>> heap;
    for (std::size_t v = 0; v < n; ++v) {
        degree[v] = adj[v].size();
        heap.push({degree[v], v});
    }

    // Compact an element's member list to live principals, returning its
    // weight |Le|. Each dead entry is dropped exactly once, so repeated
    // scans stay proportional to the quotient graph, not to history.
    const auto element_weight = [&](std::size_t e) {
        std::vector<std::size_t>& vars = elem_vars[e];
        std::size_t keep = 0;
        std::size_t w = 0;
        for (const std::size_t u : vars) {
            if (eliminated[u] || merged[u])
                continue;
            vars[keep++] = u;
            w += nv[u];
        }
        vars.resize(keep);
        return w;
    };

    std::vector<std::size_t> reach;          // Lp: principal variables
    std::vector<entry> hash_bucket;          // (hash, v) for supervariable detection
    std::vector<std::size_t> order;
    order.reserve(n);
    std::size_t emitted = 0;
    while (emitted < n) {
        const auto [deg, p] = heap.top();
        heap.pop();
        if (eliminated[p] || merged[p] || deg != degree[p])
            continue;
        eliminated[p] = true;
        for (std::size_t m = p; m != none; m = mem_next[m])
            order.push_back(m);
        emitted += nv[p];

        // Lp: the pivot's reach through direct edges and its elements.
        ++clock;
        stamp[p] = clock;
        reach.clear();
        std::size_t lp_weight = 0;
        for (const std::size_t u : adj[p])
            if (!eliminated[u] && !merged[u] && stamp[u] != clock) {
                stamp[u] = clock;
                reach.push_back(u);
                lp_weight += nv[u];
            }
        for (const std::size_t e : adjel[p]) {
            if (absorbed[e])
                continue;
            for (const std::size_t u : elem_vars[e])
                if (!eliminated[u] && !merged[u] && stamp[u] != clock) {
                    stamp[u] = clock;
                    reach.push_back(u);
                    lp_weight += nv[u];
                }
            absorbed[e] = true; // absorbed into the pivot's element
        }
        if (reach.empty())
            continue;
        const std::size_t reach_clock = clock;

        const std::size_t eid = elem_vars.size();
        elem_vars.push_back(reach);
        absorbed.push_back(false);
        elem_w.push_back(0);
        elem_wstamp.push_back(0);

        // One pass per adjacent element: start from |Le| and subtract the
        // members that lie in Lp, leaving elem_w[e] = |Le \ Lp|. This is
        // the approximate-degree trick — the element is scanned once per
        // pivot here instead of once per reached variable below.
        for (const std::size_t v : reach) {
            for (const std::size_t e : adjel[v]) {
                if (absorbed[e])
                    continue;
                if (elem_wstamp[e] != reach_clock) {
                    elem_wstamp[e] = reach_clock;
                    elem_w[e] = element_weight(e);
                }
                elem_w[e] -= nv[v];
            }
        }

        // Prune adjacency, absorb emptied elements, update degrees.
        for (const std::size_t v : reach) {
            std::size_t keep = 0;
            std::size_t ext_adj = 0;
            for (const std::size_t u : adj[v]) {
                if (eliminated[u] || merged[u] || stamp[u] == reach_clock)
                    continue; // dead, or covered by the new element
                adj[v][keep++] = u;
                ext_adj += nv[u];
            }
            adj[v].resize(keep);
            std::size_t ekeep = 0;
            std::size_t ext_elem = 0;
            for (const std::size_t e : adjel[v]) {
                if (absorbed[e])
                    continue;
                if (elem_wstamp[e] == reach_clock && elem_w[e] == 0) {
                    absorbed[e] = true; // aggressive absorption: Le ⊆ Lp
                    continue;
                }
                adjel[v][ekeep++] = e;
                if (elem_wstamp[e] == reach_clock)
                    ext_elem += elem_w[e];
            }
            adjel[v].resize(ekeep);
            adjel[v].push_back(eid);

            // Amestoy/Davis/Duff bound on the external degree.
            const std::size_t lp_ext = lp_weight - nv[v];
            const std::size_t cap = n - emitted >= nv[v] ? n - emitted - nv[v] : 0;
            std::size_t d = std::min(degree[v] + lp_ext, ext_adj + lp_ext + ext_elem);
            degree[v] = std::min(cap, d);
        }

        // Supervariable detection: hash each reached variable's pruned
        // adjacency; equal hashes are confirmed by exact set comparison
        // (lists are sorted in place, which also canonicalizes them) and
        // merged, smaller index as principal.
        hash_bucket.clear();
        for (const std::size_t v : reach) {
            std::sort(adj[v].begin(), adj[v].end());
            std::sort(adjel[v].begin(), adjel[v].end());
            std::size_t h = 0;
            for (const std::size_t u : adj[v])
                h += u;
            for (const std::size_t e : adjel[v])
                h += e * 2654435761u;
            hash_bucket.emplace_back(h, v);
        }
        std::sort(hash_bucket.begin(), hash_bucket.end());
        for (std::size_t i = 0; i < hash_bucket.size(); ++i) {
            const std::size_t v = hash_bucket[i].second;
            if (merged[v])
                continue;
            for (std::size_t j = i + 1;
                 j < hash_bucket.size() && hash_bucket[j].first == hash_bucket[i].first; ++j) {
                const std::size_t u = hash_bucket[j].second;
                if (merged[u] || adj[u] != adj[v] || adjel[u] != adjel[v])
                    continue;
                merged[u] = true;
                mem_next[mem_tail[v]] = u;
                mem_tail[v] = mem_tail[u];
                degree[v] = degree[v] >= nv[u] ? degree[v] - nv[u] : 0;
                nv[v] += nv[u];
                nv[u] = 0;
            }
        }
        for (const std::size_t v : reach)
            if (!merged[v])
                heap.push({degree[v], v});
    }
    return order;
}

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_AMD_ORDER_H
