/**
 * @file
 * Google-benchmark measurements of full-catalog instruction-table
 * characterization (§V): the serial single-session characterizer vs
 * the campaign-backed builder at several worker counts, plus the
 * dedup effect of the shared throughput/port specs. The CI
 * bench-regression job compares the parallel-vs-serial ratio against
 * a committed baseline; see tools/check_bench.py.
 */

#include <benchmark/benchmark.h>

#include "uops/table.hh"

namespace
{

using namespace nb;

void
BM_TableSerial(benchmark::State &state)
{
    // The pre-campaign way: one Session, every planned spec in order.
    setQuiet(true);
    Engine engine;
    Session session = engine.session({});
    uops::Characterizer tool(session);
    for (auto _ : state)
        benchmark::DoNotOptimize(tool.characterizeAll().size());
    state.counters["variants"] = static_cast<double>(
        tool.variantCatalog().size());
}
BENCHMARK(BM_TableSerial)->Unit(benchmark::kMillisecond);

void
BM_TableCampaign(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = static_cast<unsigned>(state.range(0));
    uops::buildInstructionTable(engine, opt); // warm the program cache
    engine.resetStats();
    std::size_t cache_hits = 0;
    for (auto _ : state) {
        auto build = uops::buildInstructionTable(engine, opt);
        cache_hits = build.report.cacheHits;
        benchmark::DoNotOptimize(build.table.rows.size());
    }
    state.counters["cache_hits"] = static_cast<double>(cache_hits);
    state.counters["machines_constructed"] =
        static_cast<double>(engine.machinesConstructed());
}
BENCHMARK(BM_TableCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_TableNoDedup(benchmark::State &state)
{
    // Without dedup every variant's throughput benchmark runs twice
    // (once for the throughput decoder, once for ports).
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    opt.dedup = false;
    uops::buildInstructionTable(engine, opt);
    engine.resetStats();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            uops::buildInstructionTable(engine, opt).table.rows.size());
    }
}
BENCHMARK(BM_TableNoDedup)->Unit(benchmark::kMillisecond);

void
BM_TableSerialization(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto build = uops::buildInstructionTable(engine, opt);
    for (auto _ : state) {
        auto json = build.table.toJson();
        auto parsed = uops::InstructionTable::fromJson(json);
        benchmark::DoNotOptimize(parsed.rows.size());
    }
}
BENCHMARK(BM_TableSerialization)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
