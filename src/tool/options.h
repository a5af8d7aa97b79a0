// CLI option parsing for the acstab tool.
#ifndef ACSTAB_TOOL_OPTIONS_H
#define ACSTAB_TOOL_OPTIONS_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/param_grid.h"

namespace acstab::tool {

struct cli_options {
    std::string node;
    std::string probe;
    real fstart = default_fstart_hz;
    real fstop = default_fstop_hz;
    std::size_t ppd = 50;
    real tstop = 0.0;
    real dt = 0.0;
    /// Worker threads for frequency-domain sweeps (1 = serial, 0 = all
    /// hardware threads).
    std::size_t threads = 1;
    /// Adaptive frequency grid: solve coarse anchors, fit a rational
    /// model, factor only where the model fails its residual check.
    bool adaptive = false;
    /// Relative model tolerance of the adaptive sweep (--fit-tol).
    real fit_tol = 1e-6;
    /// Anchor density of the adaptive sweep (--anchors-per-decade).
    std::size_t anchors_per_decade = 4;
    bool csv = false;
    bool annotate = false;
    bool all_nodes = false;
    /// Target circuit node count for `acstab gen` (--size).
    std::size_t size = 0;
    /// `acstab tran`: print the shared transient solver's counters
    /// (solves, symbolic builds, pattern rebuilds, guard activity).
    bool solver_stats = false;
    /// Step amplitude for transient campaigns (--step; volts on a pulsed
    /// source, amps for nodal injection).
    real step = 0.01;
    /// Whether the band/density flags were given explicitly (campaign
    /// planning falls back to the netlist's .stability card otherwise).
    bool fstart_set = false;
    bool fstop_set = false;
    bool ppd_set = false;

    /// --source e1,e2: elements forced onto the impedance partition's
    /// source side (`acstab impedance`, `acstab farm plan --analysis
    /// impedance`).
    std::string source;

    // Corner-farm campaign flags (`acstab farm ...`).
    std::string analysis;              ///< --analysis stability|impedance|transient
    std::string temps;                 ///< --temps -40,27,125
    std::vector<std::string> corners;  ///< --corner name:p=v,... (repeatable)
    std::vector<std::string> params;   ///< --param name=v1,v2,... (repeatable)
    std::string shard;                 ///< --shard k/N (1-based k)
    std::string out;                   ///< --out FILE (default: stdout)
    bool table = false;                ///< --table (merge: text table, not JSON)

    // Fault-tolerant orchestrator flags (`acstab farm exec`).
    std::size_t workers = 2;           ///< --workers N (worker processes)
    std::string dir;                   ///< --dir D (journal + shard streams)
    bool resume = false;               ///< --resume (continue an interrupted exec)
    real point_timeout = 300.0;        ///< --point-timeout SECONDS (per point)
    std::size_t retries = 3;           ///< --retries N (attempts before quarantine)
    bool quiet = false;                ///< --quiet (no per-point progress lines)
    std::string shard_file;            ///< --shard-file F (internal: farm worker)
    std::size_t worker_id = 0;         ///< --worker-id K (internal: farm worker)

    // Campaign service flags (`acstab serve`).
    std::string socket_path;           ///< --socket PATH (unix listen socket)
    bool stdio = false;                ///< --stdio (single client on stdin/stdout)
    std::size_t max_concurrent = 2;    ///< --max-concurrent M (parallel requests)
    std::size_t queue_depth = 4;       ///< --queue-depth Q (admitted waiters)
    std::size_t max_frame = 1u << 20;  ///< --max-frame BYTES (request line cap)
    real drain_grace = 10.0;           ///< --drain-grace SECONDS (SIGTERM budget)
    /// Non-flag arguments after the command's own positionals (the merge
    /// step's shard files).
    std::vector<std::string> positionals;
};

/// Parse "--key value" style options; throws analysis_error on unknown
/// keys or malformed values (count flags such as --ppd or --workers take
/// whole numbers >= 0 only; the error names the flag). With allow_positionals (the farm commands:
/// merge takes shard files), bare non-"--" tokens are collected into
/// `positionals`; otherwise they are errors, as before.
[[nodiscard]] cli_options parse_cli_options(int argc, char** argv,
                                            bool allow_positionals = false);

/// Number of log-sweep points covering [fstart, fstop] at ppd density.
[[nodiscard]] std::size_t sweep_point_count(real fstart, real fstop, std::size_t ppd);

/// "a,b,c" -> values (SPICE number syntax per element).
[[nodiscard]] std::vector<real> parse_value_list(const std::string& text);

/// "a,b,c" -> names (the --source element list; empty fields rejected).
[[nodiscard]] std::vector<std::string> parse_name_list(const std::string& text);

/// "--corner name:p1=v1,p2=v2" payload -> corner_def (overrides optional).
[[nodiscard]] core::corner_def parse_corner_spec(const std::string& text);

/// "--param name=v1,v2,..." payload -> param_axis.
[[nodiscard]] core::param_axis parse_param_axis(const std::string& text);

/// "--shard k/N" payload (1-based k) -> {0-based index, count}.
struct shard_spec {
    std::size_t index = 0;
    std::size_t count = 1;
};
[[nodiscard]] shard_spec parse_shard_spec(const std::string& text);

} // namespace acstab::tool

#endif // ACSTAB_TOOL_OPTIONS_H
