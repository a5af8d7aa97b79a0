// Corner-farm campaign planning: a serializable description of "analyze
// this node of this netlist at every point of this TEMP x corner x
// .param grid" (the paper's computer-farm run capability).
//
// The spec is the unit of distribution. `acstab farm plan` writes it
// once; every shard process reads the SAME spec, derives its contiguous
// slice of global point indices from --shard k/N, and executes
// independently; the merge step reassembles slotted records. Nothing in
// the spec is machine-specific (thread counts live on the run command),
// so a plan file is valid on any host that can read the netlist.
#ifndef ACSTAB_FARM_CAMPAIGN_H
#define ACSTAB_FARM_CAMPAIGN_H

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/impedance.h"
#include "core/analyzer.h"
#include "core/param_grid.h"
#include "core/tran_stability.h"
#include "farm/json.h"

namespace acstab::farm {

/// What each grid point runs: the paper's stability-plot analysis, the
/// Nyquist-like impedance-partition criterion at the same node, or the
/// time-domain step-response cross-check (paper Fig. 2).
enum class campaign_analysis { stability, impedance, transient };

struct campaign_spec {
    /// Netlist path as given to `farm plan`; shard processes re-read it,
    /// so it must resolve on every farm machine (relative to the shared
    /// working directory, or absolute on a shared filesystem).
    std::string netlist;
    /// The watched node (single-node analysis per grid point); for
    /// impedance campaigns, the partition node.
    std::string node;
    campaign_analysis analysis = campaign_analysis::stability;
    /// Elements forced onto the impedance partition's source side
    /// (ignored by stability campaigns).
    std::vector<std::string> source_elements;
    core::param_grid grid;

    // Transient-campaign settings (serialized only for transient
    // campaigns, so stability/impedance plan bytes are untouched).
    real tran_tstop = 0.0;       ///< step-response record length (required)
    real tran_dt = 0.0;          ///< nominal step; 0 selects tstop / 4000
    real tran_step = 0.01;       ///< step amplitude (V on a source, A injected)
    /// Element pulsed per point; empty injects a current step into the
    /// watched node (works on netlists with no source at all).
    std::string tran_source;

    // Frequency-sweep and analysis settings, mirrored from
    // core::stability_options so every shard analyzes identically.
    real fstart = 1e3;
    real fstop = 1e9;
    std::size_t points_per_decade = 40;
    bool adaptive = false;
    real fit_tol = 1e-6;
    std::size_t anchors_per_decade = 4;

    /// The per-point analysis options this spec pins down. `threads` is
    /// the executor's machine-local point-level parallelism; it does not
    /// affect results (points are slotted by index).
    [[nodiscard]] core::stability_options stability_options(std::size_t threads) const;
    /// The impedance-campaign equivalent (same sweep/adaptive settings).
    [[nodiscard]] analysis::impedance_options impedance_options(std::size_t threads) const;
    /// The transient-campaign equivalent (step stimulus on the shared
    /// transient solver). Points are single-threaded inside; the executor
    /// parallelizes across points.
    [[nodiscard]] core::tran_stability_options transient_options() const;
};

/// Refuse a fit_tol outside (0, engine::max_fit_tol], a stability
/// campaign below engine::min_points_per_decade and a transient campaign
/// whose window spice::check_tran_window refuses (run by `farm plan` and
/// campaign_from_json).
void check_sweep(const campaign_spec& spec);

/// Spec <-> JSON (the plan file). Round trips exactly: numbers use the
/// shortest round-trip form and map-valued fields serialize name-sorted.
[[nodiscard]] json_value to_json(const campaign_spec& spec);
[[nodiscard]] campaign_spec campaign_from_json(const json_value& doc);

/// Contiguous slice of global point indices [begin, end) owned by shard
/// `shard` (0-based) of `shard_count`. Every point lands in exactly one
/// shard; earlier shards take the remainder, so sizes differ by at most
/// one. Throws analysis_error on shard >= shard_count or shard_count == 0.
struct shard_range {
    std::size_t begin = 0;
    std::size_t end = 0;
};
[[nodiscard]] shard_range shard_slice(std::size_t total, std::size_t shard,
                                      std::size_t shard_count);

} // namespace acstab::farm

#endif // ACSTAB_FARM_CAMPAIGN_H
