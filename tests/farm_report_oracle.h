// Shared by the farm test suites: the single-process report oracle and
// shard-stream helpers.
//
// The oracle assembles a campaign report by hand from the plan echo, the
// point count and the canonical bytes of every in-process record. It
// contains no merge code, so `farm merge`, `farm exec` and served
// reports are all checked against an independent computation.
#ifndef ACSTAB_TESTS_FARM_REPORT_ORACLE_H
#define ACSTAB_TESTS_FARM_REPORT_ORACLE_H

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/json.h"
#include "farm/shard_store.h"

namespace acstab::farm_test {

/// The report bytes of `spec` whose records are `records`, in order.
[[nodiscard]] inline std::string report_bytes(const farm::campaign_spec& spec,
                                              const std::vector<farm::point_record>& records)
{
    farm::json_value report = farm::json_value::object();
    report.set("schema", farm::json_value::str("acstab-farm-report-v1"));
    report.set("campaign", farm::to_json(spec));
    report.set("points", farm::json_value::number(spec.grid.size()));
    farm::json_value recs = farm::json_value::array();
    for (const farm::point_record& rec : records)
        recs.push_back(farm::point_record_to_json(rec));
    report.set("records", std::move(recs));
    return report.dump() + "\n";
}

/// The single-process ground truth: every point run in this process.
[[nodiscard]] inline std::string expected_report_bytes(const farm::campaign_spec& spec)
{
    return report_bytes(spec, farm::run_shard(spec, 0, 1));
}

/// Write `records` as the shard stream `path` (replacing any old file).
inline std::string write_stream(const std::string& path, const farm::campaign_spec& spec,
                                std::size_t writer,
                                const std::vector<farm::point_record>& records)
{
    std::remove(path.c_str());
    farm::shard_writer out(path, spec, writer);
    for (const farm::point_record& rec : records)
        out.append(rec);
    return path;
}

[[nodiscard]] inline std::string read_file_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Merge shard streams into `out` and return the report's bytes.
[[nodiscard]] inline std::string merged_bytes(const farm::campaign_spec& spec,
                                              const std::vector<std::string>& paths,
                                              const std::string& out)
{
    (void)farm::merge_shard_streams(spec, paths, {}, out);
    return read_file_bytes(out);
}

} // namespace acstab::farm_test

#endif // ACSTAB_TESTS_FARM_REPORT_ORACLE_H
