#include "farm/shard_store.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include <unistd.h>

#include "common/error.h"

namespace acstab::farm {

namespace {

    [[nodiscard]] std::string errno_text()
    {
        return std::strerror(errno);
    }

    /// Corrupt-shard diagnostics must tell the operator what happened and
    /// what to do next, not just where the parser gave up.
    [[noreturn]] void throw_corrupt(const std::string& path, std::uint64_t offset,
                                    const std::string& detail)
    {
        throw analysis_error("farm: shard file '" + path + "' is corrupt at byte offset "
                             + std::to_string(offset) + " (" + detail
                             + "); the writing worker likely crashed mid-write — "
                               "delete this shard file and re-run with "
                               "'acstab farm exec --resume' to recompute its points");
    }

    /// Read `length` bytes at `offset` from an already-open shard file
    /// (used to byte-compare duplicate records without keeping either
    /// resident past the comparison).
    [[nodiscard]] std::string read_span(std::FILE* f, const std::string& path,
                                        std::uint64_t offset, std::size_t length)
    {
        std::string buf(length, '\0');
        if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0
            || std::fread(buf.data(), 1, length, f) != length)
            throw analysis_error("farm: short read from shard file '" + path
                                 + "' at byte offset " + std::to_string(offset)
                                 + " (file changed while merging?)");
        return buf;
    }

} // namespace

std::string shard_stream_header(const campaign_spec& spec, std::size_t writer_id)
{
    json_value header = json_value::object();
    header.set("schema", json_value::str(shard_stream_schema));
    header.set("campaign", to_json(spec));
    header.set("worker", json_value::number(writer_id));
    return header.dump() + "\n";
}

shard_writer::shard_writer(const std::string& path, const campaign_spec& spec,
                           std::size_t worker_id)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr)
        throw analysis_error("farm: cannot open shard file '" + path
                             + "' for append: " + errno_text());
    // A fresh (empty) file gets the header line; an existing file keeps
    // its own — appending after a crash is the orchestrator's job to
    // forbid (it hands respawned workers fresh files), not ours.
    if (std::ftell(file_) == 0) {
        const std::string line = shard_stream_header(spec, worker_id);
        if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()
            || std::fflush(file_) != 0)
            throw analysis_error("farm: cannot write shard header to '" + path
                                 + "': " + errno_text());
    }
}

shard_writer::~shard_writer()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void shard_writer::append(const point_record& rec)
{
    // One fwrite for "record\n", then flush: after a SIGKILL the file
    // holds a valid prefix plus at most one newline-less tail, which
    // scan_shard_stream() drops.
    const std::string line = point_record_to_json(rec).dump() + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()
        || std::fflush(file_) != 0)
        throw analysis_error("farm: cannot append record to shard file '" + path_
                             + "': " + errno_text());
}

shard_stream_scan scan_shard_stream(const std::string& path, const std::string& spec_bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw analysis_error("farm: cannot open shard file '" + path + "'");

    shard_stream_scan scan;
    std::string line;
    std::uint64_t offset = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        // getline() sets eofbit when the last line has no trailing
        // newline — exactly the signature of a record cut short by a
        // killed worker. Drop it; the point is simply not finished.
        if (in.eof()) {
            if (!saw_header)
                throw_corrupt(path, offset, "header line is truncated");
            scan.truncated_tail_bytes = line.size();
            break;
        }
        if (!saw_header) {
            json_value header;
            try {
                header = json_value::parse(line);
            } catch (const parse_error& e) {
                throw_corrupt(path, offset, e.what());
            }
            const json_value* schema = header.find("schema");
            if (schema == nullptr || schema->type() != json_value::kind::string
                || schema->as_string() != shard_stream_schema)
                throw analysis_error(
                    "farm: '" + path
                    + "' is not an acstab shard stream (bad schema field); a whole-document "
                      "shard from an older build cannot be merged — re-run 'acstab farm run' "
                      "for that shard to write it as a shard stream");
            if (!spec_bytes.empty() && header.at("campaign").dump() != spec_bytes)
                throw analysis_error("farm: shard file '" + path
                                     + "' was produced by a different campaign plan");
            saw_header = true;
        } else {
            // Every complete record line must be valid JSON (only the
            // very last line may be a crash casualty), but only its index
            // is needed: the line is validated without building it.
            std::optional<json_value> index;
            try {
                index = json_value::parse_member(line, "index");
            } catch (const parse_error& e) {
                throw_corrupt(path, offset, e.what());
            }
            if (!index)
                throw_corrupt(path, offset, "record has no index field");
            scan.records.push_back({index->as_index(), offset, line.size()});
        }
        offset += line.size() + 1;
        line.clear();
    }
    if (!saw_header && scan.truncated_tail_bytes == 0)
        throw analysis_error("farm: '" + path
                             + "' is not an acstab shard stream (empty file)");
    return scan;
}

stream_merge_result merge_shard_streams(const campaign_spec& spec,
                                        const std::vector<std::string>& shard_paths,
                                        const std::vector<point_record>& extra_records,
                                        const std::string& out_path)
{
    const std::size_t total = spec.grid.size();
    const std::string spec_bytes = to_json(spec).dump();

    // Pass 1: scan every shard, slotting (file, offset, length) per grid
    // index. Only refs are resident — O(points) small structs, O(1)
    // record bodies.
    struct slot_ref {
        std::size_t file = 0;
        std::uint64_t offset = 0;
        std::size_t length = 0;
        bool filled = false;
    };
    std::vector<slot_ref> slots(total);
    std::vector<std::FILE*> files;
    files.reserve(shard_paths.size());
    const auto close_all = [&files] {
        for (std::FILE* f : files)
            if (f != nullptr)
                std::fclose(f);
    };
    try {
        for (std::size_t fi = 0; fi < shard_paths.size(); ++fi) {
            const std::string& path = shard_paths[fi];
            const shard_stream_scan scan = scan_shard_stream(path, spec_bytes);
            std::FILE* f = std::fopen(path.c_str(), "rb");
            if (f == nullptr)
                throw analysis_error("farm: cannot open shard file '" + path + "'");
            files.push_back(f);
            for (const stream_record_ref& ref : scan.records) {
                if (ref.point >= total)
                    throw analysis_error("farm: shard file '" + path + "' has record index "
                                         + std::to_string(ref.point) + " outside the grid");
                slot_ref& slot = slots[ref.point];
                if (slot.filled) {
                    // A worker that died after appending but before its
                    // acknowledgment leaves a duplicate; the retried
                    // computation is deterministic, so the copies must be
                    // byte-identical. Anything else is a real conflict.
                    const std::string a = read_span(files[slot.file], shard_paths[slot.file],
                                                    slot.offset, slot.length);
                    const std::string b = read_span(f, path, ref.offset, ref.length);
                    if (a != b)
                        throw analysis_error(
                            "farm: conflicting records for point " + std::to_string(ref.point)
                            + " in '" + shard_paths[slot.file] + "' and '" + path
                            + "' (shards from different campaign runs mixed together?)");
                    continue;
                }
                slot = {fi, ref.offset, ref.length, true};
            }
        }
    } catch (...) {
        close_all();
        throw;
    }

    // Quarantined points ride as synthesized fallback records; a real
    // result (e.g. appended just before the worker's final crash) beats
    // its own quarantine placeholder.
    stream_merge_result result;
    std::vector<std::string> extra_bytes(total);
    for (const point_record& rec : extra_records) {
        if (rec.index >= total) {
            close_all();
            throw analysis_error("farm: extra record index " + std::to_string(rec.index)
                                 + " outside the grid");
        }
        if (slots[rec.index].filled)
            continue;
        extra_bytes[rec.index] = point_record_to_json(rec).dump();
        result.extras_used.push_back(rec.index);
    }

    std::size_t missing = 0;
    std::size_t first_missing = 0;
    for (std::size_t i = 0; i < total; ++i) {
        if (!slots[i].filled && extra_bytes[i].empty()) {
            if (missing == 0)
                first_missing = i;
            ++missing;
        }
    }
    if (missing != 0) {
        close_all();
        throw analysis_error("farm: merge is missing " + std::to_string(missing) + " of "
                             + std::to_string(total) + " points (first missing index "
                             + std::to_string(first_missing)
                             + "); re-run the missing slices with 'acstab farm run --shard "
                               "k/N', or finish a 'farm exec' campaign with 'acstab farm "
                               "exec --resume'");
    }

    // Pass 2: emit the report record by record, one resident at a time.
    // The record bytes are the writers' canonical dumps.
    const std::string tmp_path = out_path.empty() ? std::string() : out_path + ".tmp";
    std::FILE* out = out_path.empty() ? stdout : std::fopen(tmp_path.c_str(), "wb");
    if (out == nullptr) {
        close_all();
        throw analysis_error("farm: cannot write '" + tmp_path + "': " + errno_text());
    }
    const auto emit = [&](const std::string& text) {
        if (std::fwrite(text.data(), 1, text.size(), out) != text.size())
            throw analysis_error("farm: cannot write report: " + errno_text());
    };
    std::string prefix = "{\"schema\":\"";
    prefix += report_schema;
    prefix += "\",\"campaign\":";
    prefix += spec_bytes;
    prefix += ",\"points\":";
    prefix += json_value::number(total).dump();
    prefix += ",\"records\":[";
    try {
        emit(prefix);
        for (std::size_t i = 0; i < total; ++i) {
            if (i != 0)
                emit(",");
            if (slots[i].filled)
                emit(read_span(files[slots[i].file], shard_paths[slots[i].file],
                               slots[i].offset, slots[i].length));
            else
                emit(extra_bytes[i]);
        }
        emit("]}\n");
    } catch (...) {
        if (out != stdout) {
            std::fclose(out);
            std::remove(tmp_path.c_str());
        }
        close_all();
        throw;
    }
    close_all();
    if (out != stdout) {
        const bool flushed = std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
        std::fclose(out);
        if (!flushed || std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
            const std::string msg = errno_text();
            std::remove(tmp_path.c_str());
            throw analysis_error("farm: cannot finalize report '" + out_path + "': " + msg);
        }
    } else {
        std::fflush(out);
    }
    result.points = total;
    return result;
}

json_value parse_farm_document(const std::string& text, const std::string& name,
                               farm_document kind)
{
    try {
        return json_value::parse(text);
    } catch (const parse_error& e) {
        // parse_error already reports "at offset N"; prepend the file and
        // what it is, and append the recovery that works for that kind.
        std::string what;
        std::string recovery;
        switch (kind) {
        case farm_document::plan:
            what = "campaign plan";
            recovery = "re-create the plan with 'acstab farm plan'";
            break;
        case farm_document::report:
            what = "campaign report";
            recovery = "re-create the report from its shard streams with 'acstab farm merge'";
            break;
        case farm_document::journal: {
            const std::size_t slash = name.rfind('/');
            const std::string dir = slash == std::string::npos ? "." : name.substr(0, slash);
            what = "campaign journal";
            recovery = "the campaign cannot resume from it, but the worker streams beside it "
                       "still merge: 'acstab farm merge PLAN "
                + dir + "/worker-*.jsonl --out REPORT'";
            break;
        }
        }
        throw analysis_error("farm: cannot parse " + what + " '" + name + "': " + e.what()
                             + "; " + recovery);
    }
}

} // namespace acstab::farm
