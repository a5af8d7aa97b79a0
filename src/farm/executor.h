// Per-point campaign executor.
//
// point_runner runs one grid point through the regular analysis stack
// (core::stability_analyzer, the impedance criterion or the transient
// step response, adaptive sweep included) and returns one index-slotted
// record; run_shard() runs it over a contiguous slice. Records carry the
// machine-readable per-point response — not just the summary table —
// because downstream model-free estimation (Cooman et al.) consumes the
// raw responses. Shards are written as JSONL shard streams and merged by
// farm/shard_store.h; a record's bytes do not depend on who ran it, so
// every merge is byte-identical to the single-process run.
#ifndef ACSTAB_FARM_EXECUTOR_H
#define ACSTAB_FARM_EXECUTOR_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "farm/campaign.h"
#include "farm/json.h"

namespace acstab::farm {

/// Schema tag of merged campaign reports.
inline constexpr const char* report_schema = "acstab-farm-report-v1";

/// Per-point outcome classification. Anything but `ok` leaves the
/// record's payload empty and its `error` text set.
enum class point_status {
    ok,              ///< analysis completed (the node may still have no peak)
    dc_failed,       ///< a Newton solve (DC or transient step) did not converge
    analysis_failed, ///< any other analysis error (singular matrix, ...)
    /// The orchestrator exhausted the point's retry budget (worker crash
    /// or wall-clock timeout on every attempt); point_runner never
    /// produces it.
    quarantined
};

/// Impedance-campaign summary and raw samples of one grid point (present
/// when the campaign's analysis kind is impedance and the point is ok).
/// The raw minor-loop gain is stored as parallel re/im arrays so the
/// Nyquist locus can be reconstructed exactly from the report.
struct impedance_point_summary {
    bool stable = false;
    int encirclements = 0;
    real nyquist_margin = 0.0;
    real nyquist_margin_freq_hz = 0.0;
    bool has_unity_crossing = false;
    real phase_margin_deg = 0.0;
    bool has_phase_crossing = false;
    real gain_margin_db = 0.0;
    std::vector<real> freq_hz;
    std::vector<real> lm_re;
    std::vector<real> lm_im;
};

/// Transient-campaign summary of one grid point (present when the
/// campaign's analysis kind is transient and the point is ok): the
/// step-response verdict, the second-order read-back (damping +
/// equivalent phase margin, the paper's Fig. 2 cross-check against the
/// AC verdict) and a decimated waveform so record size stays bounded
/// regardless of the timestep.
struct transient_point_summary {
    bool stable = false;
    bool ringing = false;
    real overshoot_pct = 0.0;
    real ringing_freq_hz = 0.0;
    real settling_time_s = 0.0;
    real final_value = 0.0;
    real zeta = 0.0;        ///< from overshoot inversion / log decrement
    real equiv_pm_deg = 0.0; ///< min(100 * zeta, 90), the AC analyzer's mapping
    std::vector<real> time_s; ///< decimated step response
    std::vector<real> value;
};

/// One grid point's serialized outcome.
struct point_record {
    std::size_t index = 0; ///< stable global grid index
    core::grid_point point;
    point_status status = point_status::ok;
    std::string error;

    // Stability-campaign summary (meaningful when status == ok).
    bool has_peak = false;
    real fn_hz = 0.0;
    real peak = 0.0;
    real zeta = 0.0;
    real phase_margin_deg = 0.0;
    real overshoot_pct = 0.0;

    /// Raw response record: the watched node's |Z(j 2 pi f)| samples.
    std::vector<real> freq_hz;
    std::vector<real> magnitude;

    /// Impedance-campaign payload (replaces the stability summary).
    std::optional<impedance_point_summary> impedance;

    /// Transient-campaign payload (replaces the stability summary).
    std::optional<transient_point_summary> transient;
};

/// Execute shard `shard` of `shard_count` (points from shard_slice) with
/// `threads` point-level workers (0 = all cores; per-point analysis is
/// serial either way, so results do not depend on the thread count).
[[nodiscard]] std::vector<point_record> run_shard(const campaign_spec& spec,
                                                  std::size_t shard, std::size_t shard_count,
                                                  std::size_t threads = 1);

/// One-point-at-a-time executor for the work-stealing farm workers and
/// for run_shard, which runs it over its slice: each call runs a single
/// grid point serially and returns its record. Per-point analysis is
/// independent and deterministic, so a point's record bytes (after
/// point_record_to_json) do not depend on who ran it — the foundation of
/// the orchestrator's retries-are-byte-safe and merge-byte-identity
/// guarantees.
class point_runner {
public:
    explicit point_runner(campaign_spec spec);
    [[nodiscard]] point_record run(std::size_t index) const;
    [[nodiscard]] const campaign_spec& spec() const noexcept { return spec_; }

private:
    campaign_spec spec_;
    core::circuit_template tmpl_;
};

/// Canonical JSON form of one point record (the byte layout shard
/// streams and merged reports share).
[[nodiscard]] json_value point_record_to_json(const point_record& rec);

/// Human-readable table of a merged report (label, fn, peak, zeta, PM;
/// failed points print their status).
[[nodiscard]] std::string format_report(const json_value& report);

} // namespace acstab::farm

#endif // ACSTAB_FARM_EXECUTOR_H
