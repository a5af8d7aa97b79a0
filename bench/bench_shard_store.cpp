// Crash-safe shard store costs: what the farm orchestrator's durability
// contract (one fwrite + fflush per record before the point is
// acknowledged) costs per append, how fast the line-by-line scanner
// recovers a shard stream, and the streaming merge on growing synthetic
// campaigns. The streaming merge keeps O(1) records resident, so its
// bytes/sec — not its memory — is the number to watch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/shard_store.h"

namespace {

using namespace acstab;

/// Synthetic campaign with `points` grid cells; records carry a
/// realistic ~60-sample response so the bench moves report-shaped bytes.
[[nodiscard]] farm::campaign_spec synthetic_campaign(std::size_t points)
{
    farm::campaign_spec spec;
    spec.netlist = "bench_shard_store.sp";
    spec.node = "out";
    core::param_axis axis;
    axis.name = "cload";
    for (std::size_t i = 0; i < points; ++i)
        axis.values.push_back(1e-12 * static_cast<real>(i + 1));
    spec.grid.axes = {axis};
    return spec;
}

[[nodiscard]] farm::point_record synthetic_record(const farm::campaign_spec& spec,
                                                  std::size_t index)
{
    farm::point_record rec;
    rec.point = spec.grid.point(index);
    rec.index = index;
    rec.has_peak = true;
    rec.fn_hz = 1e6 + static_cast<real>(index);
    rec.peak = 3.5;
    rec.zeta = 0.3;
    rec.phase_margin_deg = 33.0;
    rec.overshoot_pct = 35.0;
    for (std::size_t k = 0; k < 60; ++k) {
        rec.freq_hz.push_back(1e3 * static_cast<real>(k + 1));
        rec.magnitude.push_back(1.0 / static_cast<real>(k + 1));
    }
    return rec;
}

void bm_shard_stream_append(benchmark::State& state)
{
    const farm::campaign_spec spec = synthetic_campaign(256);
    const farm::point_record rec = synthetic_record(spec, 0);
    const std::string path = "bench_shard_append.jsonl";
    std::size_t appended = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::remove(path.c_str());
        farm::shard_writer writer(path, spec, 0);
        state.ResumeTiming();
        for (std::size_t i = 0; i < 256; ++i)
            writer.append(rec);
        appended += 256;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(appended));
    std::remove(path.c_str());
}
BENCHMARK(bm_shard_stream_append)->Unit(benchmark::kMillisecond);

void bm_shard_stream_scan(benchmark::State& state)
{
    const std::size_t points = static_cast<std::size_t>(state.range(0));
    const farm::campaign_spec spec = synthetic_campaign(points);
    const std::string spec_bytes = farm::to_json(spec).dump();
    const std::string path = "bench_shard_scan.jsonl";
    std::remove(path.c_str());
    {
        farm::shard_writer writer(path, spec, 0);
        for (std::size_t i = 0; i < points; ++i)
            writer.append(synthetic_record(spec, i));
    }
    std::size_t scanned = 0;
    for (auto _ : state) {
        const farm::shard_stream_scan scan = farm::scan_shard_stream(path, spec_bytes);
        benchmark::DoNotOptimize(scan.records.data());
        scanned += scan.records.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(scanned));
    std::remove(path.c_str());
}
BENCHMARK(bm_shard_stream_scan)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

void bm_streaming_merge(benchmark::State& state)
{
    const std::size_t points = static_cast<std::size_t>(state.range(0));
    const farm::campaign_spec spec = synthetic_campaign(points);
    const std::string path = "bench_merge_shard.jsonl";
    const std::string out = "bench_merge_report.json";
    std::remove(path.c_str());
    {
        farm::shard_writer writer(path, spec, 0);
        for (std::size_t i = 0; i < points; ++i)
            writer.append(synthetic_record(spec, i));
    }
    for (auto _ : state) {
        const farm::stream_merge_result merged
            = farm::merge_shard_streams(spec, {path}, {}, out);
        benchmark::DoNotOptimize(merged.points);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        static_cast<std::size_t>(state.iterations()) * points));
    std::remove(path.c_str());
    std::remove(out.c_str());
}
BENCHMARK(bm_streaming_merge)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
