// Fault-tolerant farm orchestrator: lease ledger state machine,
// crash-safe shard streams, streaming merge, and end-to-end `farm exec`
// campaigns under injected worker kills, stalls and interrupts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "common/error.h"
#include "core/param_grid.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/orchestrator.h"
#include "farm/shard_store.h"
#include "farm_report_oracle.h"

#ifndef ACSTAB_TOOL_PATH
#define ACSTAB_TOOL_PATH ""
#endif

namespace {

using namespace acstab;

constexpr const char* tank_netlist = R"(* parameterized RLC tank
.param rval=397.887 cval=1n
r1 tank 0 {rval}
l1 tank 0 25.3303u
c1 tank 0 {cval}
.stability tank 1e4 1e8 40
.end
)";

[[nodiscard]] std::string tank_netlist_path()
{
    static const std::string path = [] {
        const std::string p = "test_orch_tank.sp";
        std::ofstream out(p, std::ios::binary);
        out << tank_netlist;
        return p;
    }();
    return path;
}

/// Small campaign the end-to-end orchestrator tests can finish quickly:
/// 2 temps x 2 cval values = 4 points of the tank fixture.
[[nodiscard]] farm::campaign_spec small_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = tank_netlist_path();
    spec.node = "tank";
    spec.fstart = 1e4;
    spec.fstop = 1e8;
    spec.points_per_decade = 40;
    spec.grid.temps = {0.0, 50.0};
    spec.grid.axes = {{"cval", {0.8e-9, 1.2e-9}}};
    return spec;
}

using farm_test::read_file_bytes;

/// Scratch campaign state (plan file + workdir), wiped per test.
struct exec_fixture {
    farm::campaign_spec spec = small_campaign();
    std::string plan_path;
    std::string workdir;
    std::string out;

    explicit exec_fixture(const std::string& name)
        : plan_path("test_orch_" + name + "_plan.json"),
          workdir("test_orch_" + name + ".work"),
          out("test_orch_" + name + "_report.json")
    {
        std::filesystem::remove_all(workdir);
        std::filesystem::remove(out);
        std::ofstream plan(plan_path, std::ios::binary);
        plan << farm::to_json(spec).dump() << "\n";
    }

    [[nodiscard]] farm::exec_options options() const
    {
        farm::exec_options opt;
        opt.workers = 2;
        opt.workdir = workdir;
        opt.out = out;
        opt.plan_path = plan_path;
        opt.tool_path = ACSTAB_TOOL_PATH;
        opt.verbose = false;
        opt.backoff_s = 0.02; // keep retry tests fast
        return opt;
    }
};

/// Scoped ACSTAB_FAULT_INJECT so a failing test cannot leak directives
/// into later ones.
struct fault_env {
    explicit fault_env(const std::string& directives)
    {
        ::setenv("ACSTAB_FAULT_INJECT", directives.c_str(), 1);
    }
    ~fault_env() { ::unsetenv("ACSTAB_FAULT_INJECT"); }
};

// --- lease_ledger ----------------------------------------------------------

TEST(lease_ledger, grants_contiguous_leases_in_index_order)
{
    core::lease_ledger ledger(10);
    const auto a = ledger.grant(4);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->begin, 0u);
    EXPECT_EQ(a->end, 4u);
    const auto b = ledger.grant(4);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->begin, 4u);
    EXPECT_EQ(b->end, 8u);
    const auto c = ledger.grant(4);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->begin, 8u);
    EXPECT_EQ(c->end, 10u); // clipped at the grid end
    EXPECT_FALSE(ledger.grant(4).has_value());
    EXPECT_EQ(ledger.leased(), 10u);
}

TEST(lease_ledger, fail_release_regrants_below_the_cursor)
{
    core::lease_ledger ledger(6);
    (void)ledger.grant(6);
    for (std::size_t i = 0; i < 6; ++i)
        if (i != 2)
            ledger.complete(i);
    EXPECT_EQ(ledger.fail(2), 1u);
    EXPECT_EQ(ledger.cooling(), 1u);
    EXPECT_FALSE(ledger.grant(4).has_value()); // cooling points are not grantable
    ledger.release(2);
    const auto retry = ledger.grant(4);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->begin, 2u);
    EXPECT_EQ(retry->end, 3u);
    EXPECT_EQ(ledger.attempts(2), 1u);
    ledger.complete(2);
    EXPECT_EQ(ledger.unresolved(), 0u);
}

TEST(lease_ledger, requeue_returns_lease_tail_without_attempt_penalty)
{
    core::lease_ledger ledger(4);
    (void)ledger.grant(4);
    // Worker died mid-lease: point 1 was in flight, 2..3 untouched.
    ledger.complete(0);
    (void)ledger.fail(1);
    ledger.requeue(2);
    ledger.requeue(3);
    EXPECT_EQ(ledger.attempts(2), 0u);
    EXPECT_EQ(ledger.pending(), 2u);
    const auto next = ledger.grant(8);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->begin, 2u);
    EXPECT_EQ(next->end, 4u);
}

TEST(lease_ledger, quarantine_is_terminal_until_reset)
{
    core::lease_ledger ledger(3);
    (void)ledger.grant(3);
    ledger.complete(0);
    ledger.complete(2);
    (void)ledger.fail(1);
    ledger.quarantine(1);
    EXPECT_TRUE(ledger.is_quarantined(1));
    EXPECT_EQ(ledger.unresolved(), 0u);
    EXPECT_THROW(ledger.complete(1), analysis_error);
    // Resume policy: quarantined points get a fresh budget.
    ledger.reset_quarantined();
    EXPECT_FALSE(ledger.is_quarantined(1));
    EXPECT_EQ(ledger.attempts(1), 0u);
    const auto retry = ledger.grant(4);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->begin, 1u);
}

TEST(lease_ledger, complete_is_idempotent_and_accepts_recovered_records)
{
    core::lease_ledger ledger(2);
    // A resume scan marks points done without any lease in flight.
    ledger.complete(0);
    ledger.complete(0);
    EXPECT_EQ(ledger.done(), 1u);
    EXPECT_EQ(ledger.unresolved(), 1u);
    EXPECT_THROW(ledger.complete(7), analysis_error);
}

// --- shard streams ---------------------------------------------------------

/// Hand-built records are enough for store-level tests (no analysis run).
[[nodiscard]] farm::point_record synthetic_record(const farm::campaign_spec& spec,
                                                  std::size_t index,
                                                  const std::string& error)
{
    farm::point_record rec;
    rec.point = spec.grid.point(index);
    rec.index = index;
    rec.status = farm::point_status::analysis_failed;
    rec.error = error;
    return rec;
}

TEST(shard_stream, writer_scan_round_trip_and_truncated_tail_drop)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string spec_bytes = farm::to_json(spec).dump();
    const std::string path = "test_orch_stream_rt.jsonl";
    std::filesystem::remove(path);
    {
        farm::shard_writer writer(path, spec, 7);
        writer.append(synthetic_record(spec, 0, "a"));
        writer.append(synthetic_record(spec, 2, "b"));
    }
    EXPECT_EQ(read_file_bytes(path).rfind(farm::shard_stream_header(spec, 7), 0), 0u);
    const farm::shard_stream_scan clean = farm::scan_shard_stream(path, spec_bytes);
    ASSERT_EQ(clean.records.size(), 2u);
    EXPECT_EQ(clean.records[0].point, 0u);
    EXPECT_EQ(clean.records[1].point, 2u);
    EXPECT_EQ(clean.truncated_tail_bytes, 0u);

    // Chop the trailing newline + a few bytes: exactly what a SIGKILL
    // mid-append leaves behind. The partial record is dropped, the rest
    // of the file stays readable.
    const std::string bytes = read_file_bytes(path);
    std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() - 5);
    const farm::shard_stream_scan cut = farm::scan_shard_stream(path, spec_bytes);
    ASSERT_EQ(cut.records.size(), 1u);
    EXPECT_EQ(cut.records[0].point, 0u);
    EXPECT_GT(cut.truncated_tail_bytes, 0u);
}

TEST(shard_stream, mid_file_corruption_error_is_actionable)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string path = "test_orch_stream_corrupt.jsonl";
    std::filesystem::remove(path);
    {
        farm::shard_writer writer(path, spec, 0);
        writer.append(synthetic_record(spec, 0, "a"));
        writer.append(synthetic_record(spec, 1, "b"));
    }
    std::string bytes = read_file_bytes(path);
    const std::size_t first_record = bytes.find('\n') + 1;
    bytes[first_record + 2] = '\x01'; // damage inside a complete line
    std::ofstream(path, std::ios::binary) << bytes;
    try {
        (void)farm::scan_shard_stream(path, farm::to_json(spec).dump());
        FAIL() << "corrupt shard stream must not scan";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        // The triad that makes the error actionable: which file, where,
        // and what to do next.
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    }
}

TEST(shard_stream, truncated_document_error_is_actionable)
{
    // Whole-document files (plans, reports, the journal header) name
    // what they are, where the parse stopped and a recovery that works
    // for that kind of document.
    const auto error_of = [](const std::string& text, const std::string& name,
                             farm::farm_document kind) -> std::string {
        try {
            (void)farm::parse_farm_document(text, name, kind);
        } catch (const analysis_error& e) {
            return e.what();
        }
        ADD_FAILURE() << "truncated " << name << " must not parse";
        return {};
    };
    const std::string journal = error_of("{\"schema\":\"acstab-farm-journal-v1\",\"cam",
                                         "run.work/journal.jsonl", farm::farm_document::journal);
    EXPECT_NE(journal.find("journal 'run.work/journal.jsonl'"), std::string::npos) << journal;
    EXPECT_NE(journal.find("offset"), std::string::npos) << journal;
    EXPECT_NE(journal.find("acstab farm merge PLAN run.work/worker-*.jsonl"), std::string::npos)
        << journal;
    EXPECT_EQ(journal.find("--resume"), std::string::npos) << journal;

    const std::string plan
        = error_of("{\"schema\":\"acstab-farm-campaign-v1\",\"net", "plan.json",
                   farm::farm_document::plan);
    EXPECT_NE(plan.find("plan 'plan.json'"), std::string::npos) << plan;
    EXPECT_NE(plan.find("offset"), std::string::npos) << plan;
    EXPECT_NE(plan.find("acstab farm plan"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("--resume"), std::string::npos) << plan;

    const std::string report
        = error_of("{\"schema\":", "report.json", farm::farm_document::report);
    EXPECT_NE(report.find("report 'report.json'"), std::string::npos) << report;
    EXPECT_NE(report.find("acstab farm merge"), std::string::npos) << report;
}

TEST(shard_stream, merge_folds_byte_identical_duplicates_and_rejects_conflicts)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_dup_a.jsonl";
    const std::string b = "test_orch_dup_b.jsonl";
    const std::string out = "test_orch_dup_merged.json";
    std::filesystem::remove(a);
    std::filesystem::remove(b);
    {
        farm::shard_writer wa(a, spec, 0);
        for (std::size_t i = 0; i < 4; ++i)
            wa.append(synthetic_record(spec, i, "x"));
        // Worker died after appending point 2 but before its ack: the
        // retry wrote an identical copy into its own stream.
        farm::shard_writer wb(b, spec, 1);
        wb.append(synthetic_record(spec, 2, "x"));
    }
    const farm::stream_merge_result merged
        = farm::merge_shard_streams(spec, {a, b}, {}, out);
    EXPECT_EQ(merged.points, 4u);
    EXPECT_TRUE(merged.extras_used.empty());

    // A non-identical duplicate is campaign corruption, not crash debris.
    const std::string c = "test_orch_dup_c.jsonl";
    std::filesystem::remove(c);
    {
        farm::shard_writer wc(c, spec, 2);
        wc.append(synthetic_record(spec, 2, "DIFFERENT"));
    }
    EXPECT_THROW((void)farm::merge_shard_streams(spec, {a, c}, {}, out), analysis_error);
}

TEST(shard_stream, merge_missing_points_error_names_resume)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_missing_a.jsonl";
    std::filesystem::remove(a);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 0, "x"));
    }
    try {
        (void)farm::merge_shard_streams(spec, {a}, {}, "test_orch_missing_out.json");
        FAIL() << "incomplete coverage must not merge";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("missing 3 of 4"), std::string::npos) << what;
        // Both producers of shard streams have a way to finish the gap.
        EXPECT_NE(what.find("farm run --shard k/N"), std::string::npos) << what;
        EXPECT_NE(what.find("farm exec --resume"), std::string::npos) << what;
    }
}

TEST(shard_stream, quarantine_extras_fill_holes_but_lose_to_real_records)
{
    const farm::campaign_spec spec = small_campaign();
    const std::string a = "test_orch_extras_a.jsonl";
    const std::string out = "test_orch_extras_merged.json";
    std::filesystem::remove(a);
    {
        farm::shard_writer wa(a, spec, 0);
        wa.append(synthetic_record(spec, 0, "x"));
        wa.append(synthetic_record(spec, 1, "x"));
        wa.append(synthetic_record(spec, 3, "x"));
    }
    farm::point_record q2 = synthetic_record(spec, 2, "quarantined after 3 attempts");
    q2.status = farm::point_status::quarantined;
    farm::point_record q3 = synthetic_record(spec, 3, "quarantined after 3 attempts");
    q3.status = farm::point_status::quarantined;
    const farm::stream_merge_result merged
        = farm::merge_shard_streams(spec, {a}, {q2, q3}, out);
    // Point 3 has a real record (worker died post-append), so only the
    // genuinely missing point 2 takes its placeholder.
    ASSERT_EQ(merged.extras_used.size(), 1u);
    EXPECT_EQ(merged.extras_used[0], 2u);
    const farm::json_value report = farm::json_value::parse(read_file_bytes(out));
    const auto& records = report.at("records").items();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].at("status").as_string(), "quarantined");
    EXPECT_EQ(records[3].at("status").as_string(), "failed");
}

// --- end-to-end farm exec --------------------------------------------------

TEST(farm_exec, clean_run_matches_single_process_bytes)
{
    const exec_fixture fx("clean");
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
    EXPECT_FALSE(sum.interrupted);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_TRUE(sum.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, worker_kill_is_retried_to_byte_identical_report)
{
    const exec_fixture fx("crash");
    // The worker SIGKILLs itself right before point 1 — mid-shard, after
    // its stream already holds earlier records. Fire-once marker: the
    // retry computes the point normally.
    const fault_env env("crash:1");
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
    EXPECT_FALSE(sum.interrupted);
    EXPECT_TRUE(sum.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, stalled_point_times_out_into_quarantine)
{
    const exec_fixture fx("stall");
    // Stall point 2 on EVERY attempt; with a short per-point budget the
    // orchestrator must kill, retry, exhaust the budget and quarantine —
    // and still finish the other points.
    const fault_env env("stall:2:30:always");
    farm::exec_options opt = fx.options();
    opt.point_timeout_s = 1.0;
    opt.max_attempts = 2;
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_FALSE(sum.interrupted);
    ASSERT_EQ(sum.quarantined.size(), 1u);
    EXPECT_EQ(sum.quarantined[0].first, 2u);
    EXPECT_NE(sum.quarantined[0].second.find("wall-clock timeout"), std::string::npos)
        << sum.quarantined[0].second;

    // The quarantined point is listed in the report, not silently dropped.
    const farm::json_value report = farm::json_value::parse(read_file_bytes(fx.out));
    const auto& records = report.at("records").items();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].at("status").as_string(), "quarantined");
    EXPECT_NE(records[2].at("error").as_string().find("wall-clock timeout"),
              std::string::npos);
    EXPECT_EQ(records[1].at("status").as_string(), "ok");
}

TEST(farm_exec, interrupt_then_resume_is_byte_identical)
{
    const exec_fixture fx("resume");
    {
        // Injected SIGINT-equivalent after the first completed point,
        // with a worker kill thrown in for good measure.
        const fault_env env("crash:1,interrupt:1");
        const farm::exec_summary sum = farm::exec_campaign(fx.spec, fx.options());
        EXPECT_TRUE(sum.interrupted);
        EXPECT_LT(sum.completed, 4u);
    }
    // Resume re-leases only the unfinished points and converges to the
    // same bytes as the never-interrupted single-process run.
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary resumed = farm::exec_campaign(fx.spec, opt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completed, 4u);
    EXPECT_TRUE(resumed.quarantined.empty());
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, nonexistent_report_directory_fails_before_any_work)
{
    exec_fixture fx("badout");
    farm::exec_options opt = fx.options();
    opt.out = "no_such_dir_xyz/report.json";
    try {
        (void)farm::exec_campaign(fx.spec, opt);
        FAIL() << "exec must refuse an unwritable report destination";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("does not exist"), std::string::npos) << what;
        EXPECT_NE(what.find("no points were run"), std::string::npos) << what;
    }
    // The probe fires before any state is created: no workdir, no journal,
    // no worker was ever spawned.
    EXPECT_FALSE(std::filesystem::exists(fx.workdir));
}

TEST(farm_exec, file_as_report_parent_fails_before_any_work)
{
    exec_fixture fx("badparent");
    const std::string bogus_parent = "test_orch_badparent_file";
    { std::ofstream(bogus_parent, std::ios::binary) << "not a directory\n"; }
    farm::exec_options opt = fx.options();
    opt.out = bogus_parent + "/report.json";
    try {
        (void)farm::exec_campaign(fx.spec, opt);
        FAIL() << "exec must refuse a non-directory report parent";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("is not a directory"), std::string::npos) << what;
        EXPECT_NE(what.find("no points were run"), std::string::npos) << what;
    }
    EXPECT_FALSE(std::filesystem::exists(fx.workdir));
    std::filesystem::remove(bogus_parent);
}

TEST(farm_exec, failed_final_merge_preserves_records_and_names_resume)
{
    exec_fixture fx("mergefail");
    // A directory squatting on the report path defeats the writability
    // probe (its parent is fine) but makes the final rename fail — the
    // computed records must survive and the error must say how to recover.
    std::filesystem::remove_all(fx.out);
    std::filesystem::create_directory(fx.out);
    try {
        (void)farm::exec_campaign(fx.spec, fx.options());
        FAIL() << "merge onto a directory must fail";
    } catch (const analysis_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--resume"), std::string::npos) << what;
        EXPECT_NE(what.find(fx.workdir), std::string::npos) << what;
    }
    // Recovery path from the error message: fix the destination, resume,
    // and get the byte-identical report without recomputing any point.
    std::filesystem::remove_all(fx.out);
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, on_point_hook_streams_each_record_as_it_lands)
{
    exec_fixture fx("onpoint");
    farm::exec_options opt = fx.options();
    std::vector<std::pair<std::size_t, std::string>> seen;
    opt.on_point = [&](std::size_t index, const std::string& record_json) {
        seen.emplace_back(index, record_json);
    };
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(sum.completed, 4u);
    ASSERT_EQ(seen.size(), 4u);
    std::set<std::size_t> indices;
    for (const auto& [index, record_json] : seen) {
        indices.insert(index);
        const farm::json_value record = farm::json_value::parse(record_json);
        EXPECT_EQ(static_cast<std::size_t>(record.at("index").as_number()), index);
        EXPECT_EQ(record.at("status").as_string(), "ok");
    }
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, cancelled_hook_checkpoints_like_an_interrupt)
{
    exec_fixture fx("cancelhook");
    bool cancel = false;
    farm::exec_options opt = fx.options();
    opt.on_point = [&](std::size_t, const std::string&) { cancel = true; };
    opt.cancelled = [&] { return cancel; };
    const farm::exec_summary sum = farm::exec_campaign(fx.spec, opt);
    EXPECT_TRUE(sum.interrupted);
    EXPECT_LT(sum.completed, 4u);
    EXPECT_GE(sum.completed, 1u);
    // Same contract as SIGINT: the campaign is resumable to identical bytes.
    farm::exec_options resume_opt = fx.options();
    resume_opt.resume = true;
    const farm::exec_summary resumed = farm::exec_campaign(fx.spec, resume_opt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, resume_skips_a_stream_whose_worker_died_before_its_header)
{
    const exec_fixture fx("emptystream");
    ASSERT_EQ(farm::exec_campaign(fx.spec, fx.options()).completed, 4u);
    // A worker stopped between creating its stream and writing the header
    // leaves an empty file, which neither the recovery scan nor the final
    // merge may refuse.
    { std::ofstream(fx.workdir + "/worker-99.jsonl", std::ios::binary); }
    farm::exec_options opt = fx.options();
    opt.resume = true;
    EXPECT_EQ(farm::exec_campaign(fx.spec, opt).completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

TEST(farm_exec, fresh_exec_refuses_an_existing_campaign_dir)
{
    const exec_fixture fx("guard");
    (void)farm::exec_campaign(fx.spec, fx.options());
    // Accidentally re-running without --resume must not clobber state.
    EXPECT_THROW((void)farm::exec_campaign(fx.spec, fx.options()), analysis_error);
    // And --resume on an already-complete campaign just re-merges.
    farm::exec_options opt = fx.options();
    opt.resume = true;
    const farm::exec_summary again = farm::exec_campaign(fx.spec, opt);
    EXPECT_EQ(again.completed, 4u);
    EXPECT_EQ(read_file_bytes(fx.out), farm_test::expected_report_bytes(fx.spec));
}

// --- the CLI's farm run and farm merge -----------------------------------

/// Run the tool with `args`, stdout discarded and stderr into `err_path`;
/// returns the exit status.
int run_tool(const std::string& args, const std::string& err_path)
{
    const std::string cmd
        = std::string(ACSTAB_TOOL_PATH) + " " + args + " > /dev/null 2> " + err_path;
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(farm_cli, run_shards_merge_to_the_exec_report)
{
    // `farm run` slices write the same shard stream `farm exec` workers
    // write, so their merge is the exec report, byte for byte.
    const exec_fixture fx("cli");
    ASSERT_EQ(farm::exec_campaign(fx.spec, fx.options()).completed, 4u);
    const std::string err = "test_orch_cli.err";
    ASSERT_EQ(run_tool("farm run " + fx.plan_path + " --shard 1/2 --out test_orch_cli_1.jsonl",
                       err),
              0)
        << read_file_bytes(err);
    ASSERT_EQ(run_tool("farm run " + fx.plan_path + " --shard 2/2 --out test_orch_cli_2.jsonl",
                       err),
              0)
        << read_file_bytes(err);
    // Reversed on purpose: records are slotted by index.
    ASSERT_EQ(run_tool("farm merge " + fx.plan_path
                           + " test_orch_cli_2.jsonl test_orch_cli_1.jsonl"
                             " --out test_orch_cli_merged.json",
                       err),
              0)
        << read_file_bytes(err);
    EXPECT_EQ(read_file_bytes("test_orch_cli_merged.json"), read_file_bytes(fx.out));
}

TEST(farm_cli, merge_of_an_old_document_shard_names_the_file_and_farm_run)
{
    // Older builds' `farm run` wrote one JSON document per shard; the
    // merge refuses it and says how to regenerate it.
    const exec_fixture fx("cliold");
    const std::string old_shard = "test_orch_cli_old_shard.json";
    std::ofstream(old_shard, std::ios::binary)
        << "{\"schema\":\"acstab-farm-shard-v1\",\"campaign\":" << farm::to_json(fx.spec).dump()
        << ",\"shard\":{\"index\":0,\"count\":1,\"begin\":0,\"end\":4},\"records\":[]}\n";
    const std::string err = "test_orch_cli_old.err";
    EXPECT_EQ(run_tool("farm merge " + fx.plan_path + " " + old_shard
                           + " --out test_orch_cli_old_merged.json",
                       err),
              1);
    const std::string message = read_file_bytes(err);
    EXPECT_NE(message.find(old_shard), std::string::npos) << message;
    EXPECT_NE(message.find("re-run 'acstab farm run'"), std::string::npos) << message;
}

} // namespace
