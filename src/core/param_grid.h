// Declarative parameter grids for corner/TEMP campaigns (the paper's
// "computer farm run capability").
//
// A param_grid is the cartesian product TEMP x corner x named `.param`
// axes; a grid_point is one fully decoded cell of that product, carrying
// everything needed to rebuild the circuit — a temperature override, a
// corner name and the merged `.param` override map. Both are plain value
// types that serialize, so a campaign planned in one process can be
// executed shard by shard on independent processes (src/farm/) and
// merged deterministically by each point's stable global index.
#ifndef ACSTAB_CORE_PARAM_GRID_H
#define ACSTAB_CORE_PARAM_GRID_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "spice/parser/netlist_parser.h"

namespace acstab::core {

/// A named `.param` override set ("fast", "slow", "hot_weak", ...).
struct corner_def {
    std::string name;
    spice::parameter_table overrides;
};

/// One numeric `.param` axis of the grid.
struct param_axis {
    std::string name;
    std::vector<real> values;
};

/// One decoded grid cell. `index` is the point's stable global position
/// in the grid's row-major order; shard executors key their result
/// records on it so a merge reassembles the campaign deterministically.
struct grid_point {
    std::size_t index = 0;
    std::optional<real> temp_celsius;
    std::string corner; ///< empty = nominal (no corner axis)
    /// Merged overrides: corner values first, then param axes (an axis
    /// sharing a corner's parameter name wins — it is the finer knob).
    spice::parameter_table overrides;

    /// Human-readable cell descriptor ("T=27 corner=fast rload=1000").
    [[nodiscard]] std::string label() const;

    /// The parser-facing form of this point.
    [[nodiscard]] spice::parse_options parse_options() const;
};

/// Cartesian TEMP x corner x `.param` grid. Empty axes contribute a
/// single nominal value, so an all-empty grid has exactly one point.
/// Decode order is row-major with TEMP slowest, then corner, then the
/// param axes in declaration order (last axis fastest) — the global
/// point indices this defines are the contract shards and merges rely on.
struct param_grid {
    std::vector<real> temps;
    std::vector<corner_def> corners;
    std::vector<param_axis> axes;

    /// Number of grid points (>= 1; throws analysis_error on an axis with
    /// no values or a duplicate axis/corner name).
    [[nodiscard]] std::size_t size() const;

    /// Decode global point `index` into its cell.
    [[nodiscard]] grid_point point(std::size_t index) const;
};

/// A circuit rebuildable from a netlist plus a grid point: the value-typed
/// replacement for the closure factories (closures cannot cross process
/// boundaries; a path + override map can). Exactly one of `path` / `text`
/// is used: `text` when non-empty (hermetic tests), else `path`.
struct circuit_template {
    std::string path;
    std::string text;

    /// Parse the netlist with the point's overrides applied.
    [[nodiscard]] spice::parsed_netlist build(const grid_point& pt) const;
};

/// Build a param_grid from a parsed netlist's `.temp` / `.corner`
/// campaign cards (no param axes; add those from CLI flags).
[[nodiscard]] param_grid grid_from_netlist_cards(const spice::parsed_netlist& net);

/// A contiguous run of global point indices handed to one worker.
struct point_lease {
    std::size_t begin = 0;
    std::size_t end = 0; ///< exclusive
    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Work-stealing lease accounting over a grid's [0, total) index space.
///
/// The farm orchestrator grants small contiguous leases to whichever
/// worker is idle (adaptive points have wildly uneven cost, so fixed
/// contiguous slices strand slow shards behind fast ones) and feeds the
/// outcome of every point back in. The ledger is a pure state machine —
/// no clocks, no I/O — so retry backoff and journal persistence stay in
/// the orchestrator and the transition rules are unit-testable:
///
///   pending --grant--> leased --complete--> done
///                      leased --fail------> cooling (attempt recorded)
///                      cooling --release--> pending   (backoff expired)
///                      leased/cooling --quarantine--> quarantined
///
/// complete() is also accepted from the pending/cooling states so a
/// resume scan (or a record appended by a worker that died before its
/// acknowledgment arrived) can mark recovered work finished.
class lease_ledger {
public:
    explicit lease_ledger(std::size_t total);

    /// Lease up to `limit` contiguous pending points starting at the
    /// lowest pending index; nullopt when nothing is pending.
    [[nodiscard]] std::optional<point_lease> grant(std::size_t limit);

    /// Point finished (record durably appended). Allowed from any
    /// non-quarantined state; idempotent when already done.
    void complete(std::size_t index);
    /// Attempt failed (worker crash / timeout); moves the point to
    /// cooling and returns its cumulative attempt count.
    std::size_t fail(std::size_t index);
    /// Backoff expired: cooling -> pending, eligible for grant() again.
    void release(std::size_t index);
    /// A dead worker's lease points that it never started: leased ->
    /// pending with no attempt penalty (only the in-flight point fails).
    void requeue(std::size_t index);
    /// Retry budget exhausted; terminal until reset_quarantined().
    void quarantine(std::size_t index);
    /// Resume gives quarantined points a fresh chance: quarantined ->
    /// pending with the attempt counter cleared.
    void reset_quarantined();

    [[nodiscard]] std::size_t total() const noexcept { return state_.size(); }
    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
    [[nodiscard]] std::size_t leased() const noexcept { return leased_; }
    [[nodiscard]] std::size_t cooling() const noexcept { return cooling_; }
    [[nodiscard]] std::size_t done() const noexcept { return done_; }
    [[nodiscard]] std::size_t quarantined() const noexcept { return quarantined_; }
    /// Points not yet resolved (pending + leased + cooling).
    [[nodiscard]] std::size_t unresolved() const noexcept
    {
        return state_.size() - done_ - quarantined_;
    }
    [[nodiscard]] std::size_t attempts(std::size_t index) const;
    [[nodiscard]] bool is_done(std::size_t index) const;
    [[nodiscard]] bool is_quarantined(std::size_t index) const;

private:
    enum class point_state : unsigned char { pending, leased, cooling, done, quarantined };

    void check_index(std::size_t index) const;
    void move(std::size_t index, point_state to);
    [[nodiscard]] std::size_t& bucket(point_state s);

    std::vector<point_state> state_;
    std::vector<unsigned> attempts_;
    std::size_t cursor_ = 0; ///< lowest index that might still be pending
    std::size_t pending_ = 0;
    std::size_t leased_ = 0;
    std::size_t cooling_ = 0;
    std::size_t done_ = 0;
    std::size_t quarantined_ = 0;
};

} // namespace acstab::core

#endif // ACSTAB_CORE_PARAM_GRID_H
