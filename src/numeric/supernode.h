// Supernode detection for the blocked numeric LU path.
//
// A supernode is a maximal run of consecutive pivot columns whose L
// patterns nest one into the next: P(k+1) == P(k) \ {k+1}. Within such a
// run the factor columns share one sub-diagonal row structure, so the
// run's L/U entries can be stored as a dense column-major panel and the
// left-looking update consumed per (source, target) *supernode pair*
// instead of per column: one dense triangular solve and one dense
// product per pair, where the column-at-a-time path pays one indirect
// scatter per source column and target column. numeric_lu's supernodal
// mode (sparse_factor.h) is built on this partition and on the update
// plan below.
//
// Detection reads only the symbolic L pattern (pivot-renumbered rows as
// symbolic_lu stores them, unsorted within a column), so the partition
// is computed once per symbolic analysis and shared read-only by every
// worker alongside the patterns themselves; so is the plan.
#ifndef ACSTAB_NUMERIC_SUPERNODE_H
#define ACSTAB_NUMERIC_SUPERNODE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace acstab::numeric {

/// Partition of the pivot columns 0..n-1 into supernodes of consecutive
/// columns with nested L patterns. Plain index data, value-type
/// independent; immutable once built.
struct supernode_partition {
    /// First pivot column of each supernode; first[count()] == n.
    std::vector<std::size_t> first;
    /// Pivot column -> supernode id (size n).
    std::vector<std::size_t> col_super;
    /// Per supernode, the shared sub-diagonal row pattern (the L pattern
    /// of the supernode's LAST column), sorted ascending in pivot space:
    /// rows[row_ptr[s] .. row_ptr[s+1]).
    std::vector<std::size_t> row_ptr;
    std::vector<std::size_t> rows;

    [[nodiscard]] std::size_t count() const noexcept
    {
        return first.empty() ? 0 : first.size() - 1;
    }
    [[nodiscard]] std::size_t width(std::size_t s) const noexcept
    {
        return first[s + 1] - first[s];
    }
    [[nodiscard]] std::size_t sub_rows(std::size_t s) const noexcept
    {
        return row_ptr[s + 1] - row_ptr[s];
    }
};

/// Detect supernodes in a symbolic L pattern given as CSC-style arrays
/// (lcol_ptr of size n+1; lrow holds each column's sub-diagonal rows in
/// pivot space, in any order). Column k+1 extends the current supernode
/// iff its pattern is the current column's minus the pivot row k+1
/// itself; max_width caps a run so the dense panels stay cache-sized.
///
/// Circuit matrices under fill-reducing orderings leave most strict
/// supernodes at width 1, so the strict pass is followed by relaxed
/// amalgamation: adjacent supernodes are greedily merged when the
/// explicit zeros this pads into the merged panel stay small — at most
/// relax_zeros entries, or at most a relax_fill fraction of the merged
/// panel's L area. Padded positions hold exact 0.0 and every structural
/// value is reproduced bit-for-bit (0.0 * x == 0.0 contributes nothing),
/// so relaxation trades a few wasted flops for far fewer, longer panel
/// updates. Pass relax_zeros == 0 and relax_fill == 0.0 for the strict
/// partition.
[[nodiscard]] supernode_partition
detect_supernodes(std::size_t n, const std::vector<std::size_t>& lcol_ptr,
                  const std::vector<std::size_t>& lrow, std::size_t max_width = 32,
                  std::size_t relax_zeros = 12, double relax_fill = 0.25);

/// The symbolic half of numeric_lu's blocked refactorization: panel
/// geometry plus the (source, target) update pairs, derived from the L/U
/// patterns and the partition alone. Plain index data; built once per
/// symbolic analysis and shared read-only by every worker.
///
/// Each supernode s owns a dense column-major panel of panel_ld[s] rows
/// per column: the diagonal block first, then its sub-rows in the
/// partition's sorted order.
///
/// The refactorization runs one target supernode T at a time. A source
/// supernode S < T that holds U entries of some column of T forms one
/// pair. Its span runs from the first such pivot row to S's last column
/// (the nested L patterns close the reach through the dense diagonal
/// block), so one unit-lower triangular solve with S's diagonal block
/// gives U(span, T) for all the pair's columns at once. One dense product
/// of S's sub-row panel with that block then yields every update the
/// pair deposits. Rows above T go to T's *above block*, a dense
/// (above_rows[T] + 1) x width(T) scratch whose rows are the pairs'
/// spans in ascending order; its last row is a spill row. Rows at or
/// below T go to T's panel.
///
/// Relaxed amalgamation pads structural zeros into the panels, so a
/// span, a source's sub-rows or a target's row set may cover positions
/// with no structural entry. Those positions carry exact zeros through
/// the solve and the product (0.0 * x == 0.0). A sub-row outside T's
/// row set therefore deposits an exact zero, and the row map sends it
/// to the spill row (above T) or to panel row 0 (at or below T), where
/// it changes nothing.
struct supernode_plan {
    struct pair {
        std::size_t source; ///< source supernode S
        std::size_t span;   ///< first pivot row of the span (ends at S's last column)
        std::size_t above;  ///< row of the span's first row in T's above block
        std::size_t cols;   ///< offset of the pair's target columns in `cols`
        std::size_t ncols;  ///< target columns with U entries in the span
        std::size_t map;    ///< offset of the pair's row map in `rowmap`
        std::size_t nrows;  ///< leading sub-rows of S the product covers (up to T's last row)
        std::size_t nabove; ///< leading rows of those that lie above T
    };

    std::vector<std::size_t> panel_off;  ///< supernode -> panel start (size count()+1)
    std::vector<std::size_t> panel_ld;   ///< supernode -> panel leading dimension
    std::vector<std::size_t> lpanel_pos; ///< CSC L entry -> row in its column's panel
    std::vector<std::size_t> u_split;    ///< column -> its first in-block U entry
    std::vector<std::size_t> pair_ptr;   ///< target -> range in `pairs`, sources ascending
    std::vector<pair> pairs;
    std::vector<std::size_t> above_rows; ///< target -> rows of its above block (spill row excluded)
    /// Per pair, its target columns relative to T's first column, ascending.
    std::vector<std::uint32_t> cols;
    /// Parallel to `cols`: the CSC position of the column's first U entry
    /// in the span (its entries from S are contiguous in CSC).
    std::vector<std::size_t> ucsc;
    /// Per pair, one destination per covered sub-row of S: the first
    /// `nabove` index T's above block, the rest T's panel rows.
    std::vector<std::uint32_t> rowmap;

    std::size_t max_width = 1;  ///< widest supernode
    std::size_t max_sub = 0;    ///< most sub-rows of any supernode
    std::size_t max_above = 0;  ///< largest above block, spill row included (elements)
};

/// Build the plan from the symbolic patterns in pivot space (L rows in
/// any order within a column; U rows ascending with the diagonal last,
/// as symbolic_lu stores them) and their supernode partition.
[[nodiscard]] supernode_plan plan_supernodal_lu(const supernode_partition& sn,
                                                const std::vector<std::size_t>& lcol_ptr,
                                                const std::vector<std::size_t>& lrow,
                                                const std::vector<std::size_t>& ucol_ptr,
                                                const std::vector<std::size_t>& urow);

} // namespace acstab::numeric

#endif // ACSTAB_NUMERIC_SUPERNODE_H
