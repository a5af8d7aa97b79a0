// Shard streams: the one shard format, its crash-safe writer and the
// streaming merge.
//
// Every shard — a `farm run --shard k/N` slice or a `farm exec` worker's
// output — is a JSONL file: line 1 is a header object (schema +
// byte-exact campaign echo + writer id), every further line is one point
// record in the exact byte form `point_record_to_json(rec).dump()`.
// `farm run` writes its stream whole and renames it into place;
// `farm exec` workers append record by record, each with a single fwrite
// of "record\n" flushed before the point is acknowledged, so after
// SIGKILL the file is a valid prefix plus at most one truncated trailing
// line, which readers detect (missing trailing newline) and drop — the
// orchestrator simply re-runs that point, and because per-point analysis
// is deterministic the re-run is byte-safe.
//
// merge_shard_streams() is the O(1)-resident-records merge: a first pass
// scans every shard line by line recording only {point index -> file,
// byte offset, length}, then the report is emitted record by record in
// global index order by seeking back into the shards. Duplicate records
// for one index are legal iff byte-identical (a worker that died after
// appending but before acknowledging leaves one; the retry appends an
// identical copy; the same shard merged twice folds the same way);
// conflicting duplicates abort the merge.
#ifndef ACSTAB_FARM_SHARD_STORE_H
#define ACSTAB_FARM_SHARD_STORE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "farm/executor.h"

namespace acstab::farm {

/// Schema tag on line 1 of every shard stream file.
inline constexpr const char* shard_stream_schema = "acstab-farm-shardstream-v1";

/// Line 1 of a shard stream, newline included: schema, campaign echo and
/// the writer id (a `farm exec` worker id, or a `farm run` shard index).
[[nodiscard]] std::string shard_stream_header(const campaign_spec& spec,
                                              std::size_t writer_id);

/// Append-only writer for one worker's shard stream. The header is
/// written (and flushed) on creation of a fresh file; append() performs
/// one fwrite + fflush per record, which is the record-atomicity
/// contract above. A file is owned by exactly one writer process for its
/// whole lifetime — respawned workers get a fresh file, never an append
/// handle to a dead worker's (its tail may be truncated).
class shard_writer {
public:
    shard_writer(const std::string& path, const campaign_spec& spec, std::size_t worker_id);
    ~shard_writer();
    shard_writer(const shard_writer&) = delete;
    shard_writer& operator=(const shard_writer&) = delete;

    /// Append one finished point record (single write + flush).
    void append(const point_record& rec);

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
    std::FILE* file_ = nullptr;
};

/// Location of one record line inside a scanned shard stream.
struct stream_record_ref {
    std::size_t point = 0;   ///< global grid index
    std::uint64_t offset = 0; ///< byte offset of the record line
    std::size_t length = 0;  ///< line length, excluding the '\n'
};

struct shard_stream_scan {
    std::vector<stream_record_ref> records;
    /// Bytes of a truncated trailing record that was dropped (0 = clean
    /// file). A non-zero value is the normal signature of a killed
    /// worker, not an error.
    std::size_t truncated_tail_bytes = 0;
};

/// Scan one shard stream: verify the header (schema + campaign echo
/// byte-equal to `spec_bytes`), locate every record line and its point
/// index, and drop a truncated trailing record. Corruption anywhere else
/// throws analysis_error with the file name, byte offset and a
/// what-to-do-next hint (satisfying "actionable, not a bare parse
/// failure"). Memory stays O(1 record).
[[nodiscard]] shard_stream_scan scan_shard_stream(const std::string& path,
                                                  const std::string& spec_bytes);

struct stream_merge_result {
    std::size_t points = 0;
    /// Indices whose record came from `extra_records` (quarantined
    /// points synthesized by the orchestrator). An extra whose index
    /// already has a real shard record is ignored — a completed result
    /// always beats a quarantine placeholder.
    std::vector<std::size_t> extras_used;
};

/// Streaming merge of shard stream files (+ synthesized fallback records
/// for quarantined points) into the campaign report at `out_path`,
/// written atomically (temp file + rename; empty path = stdout). Coverage
/// is verified: every grid index exactly once, byte-identical duplicates
/// folded. Resident memory is O(1) records plus O(points) slot refs.
stream_merge_result merge_shard_streams(const campaign_spec& spec,
                                        const std::vector<std::string>& shard_paths,
                                        const std::vector<point_record>& extra_records,
                                        const std::string& out_path);

/// The farm's whole-document JSON files.
enum class farm_document {
    plan,    ///< `acstab farm plan` output
    report,  ///< a merged campaign report
    journal, ///< the journal header line of a `farm exec` workdir
};

/// Parse a whole-document farm JSON text with an actionable error: on
/// malformed or truncated input the analysis_error names the kind of
/// document, the file and the byte offset, plus a recovery that works
/// for that kind (re-create a plan with `farm plan`, a report with
/// `farm merge`; a broken journal's worker streams still merge).
[[nodiscard]] json_value parse_farm_document(const std::string& text, const std::string& name,
                                             farm_document kind);

} // namespace acstab::farm

#endif // ACSTAB_FARM_SHARD_STORE_H
