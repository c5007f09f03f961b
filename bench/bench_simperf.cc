/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrate itself:
 * replacement-policy updates, hierarchy accesses, assembly, and full
 * nanoBench invocations. These are performance (not correctness)
 * benchmarks for the reproduction's own infrastructure.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "cachetools/policy_sim.hh"
#include "core/engine.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace
{

using namespace nb;

void
BM_PolicyUpdate(benchmark::State &state, const char *name)
{
    Rng rng(1);
    cachetools::PolicySim sim(cache::makePolicy(name, 16, &rng));
    Rng seq(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.access(static_cast<int>(seq.nextBelow(24))));
    }
}
BENCHMARK_CAPTURE(BM_PolicyUpdate, lru, "LRU");
BENCHMARK_CAPTURE(BM_PolicyUpdate, plru, "PLRU");
BENCHMARK_CAPTURE(BM_PolicyUpdate, qlru, "QLRU_H11_M1_R0_U0");

void
BM_HierarchyAccess(benchmark::State &state)
{
    Rng rng(1);
    cache::Hierarchy h(uarch::getMicroArch("Skylake").cacheConfig,
                       &rng);
    h.setPrefetcherControl(cache::pf::kDisableAll);
    Rng addr_rng(2);
    for (auto _ : state) {
        Addr a = addr_rng.nextBelow(1ULL << 24) & ~Addr{63};
        benchmark::DoNotOptimize(
            h.access(a, cache::AccessType::Load).latency);
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_HierarchyL1Hit(benchmark::State &state)
{
    // The cheapest demand access: a load that hits in L1 (the
    // denominator of the wbinvd_vs_l1_hit gate).
    Rng rng(1);
    cache::Hierarchy h(uarch::getMicroArch("Zen").cacheConfig, &rng);
    constexpr Addr kLines = 8;
    for (Addr i = 0; i < kLines; ++i)
        h.access(i * 64, cache::AccessType::Load);
    Addr i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access((i++ % kLines) * 64, cache::AccessType::Load).level);
    }
}
BENCHMARK(BM_HierarchyL1Hit);

void
BM_HierarchyWbinvd(benchmark::State &state)
{
    // WBINVD on Zen's full 8 MB L3 (plus L1/L2), filled beforehand. A
    // flush that walks every line costs ~10^4 L1 hits; flush
    // generations make it O(1), which the wbinvd_vs_l1_hit gate pins.
    Rng rng(1);
    const auto &config = uarch::getMicroArch("Zen").cacheConfig;
    cache::Hierarchy h(config, &rng);
    for (Addr a = 0; a < config.l3.sizeBytes; a += 64)
        h.access(a, cache::AccessType::Load);
    for (auto _ : state) {
        h.wbinvd();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_HierarchyWbinvd);

void
BM_Assemble(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            x86::assemble("mov R14, [R14+RSI*8+16]; add RAX, 5"));
    }
}
BENCHMARK(BM_Assemble);

void
BM_MachineExecute(benchmark::State &state)
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    machine.setPrivilege(sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);
    auto prog = sim::Program::decode(
        machine.uarch(),
        x86::assemble("mov R15, 100; l: add RAX, RBX; imul RCX, RCX; "
                      "dec R15; jnz l"));
    for (auto _ : state) {
        auto stats = machine.execute(prog);
        benchmark::DoNotOptimize(stats.instructions);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 402)); // instructions per execute
}
BENCHMARK(BM_MachineExecute);

void
BM_FullNanoBenchRun(benchmark::State &state)
{
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);
    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.unrollCount = 100;
    spec.nMeasurements = 10;
    spec.warmUpCount = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            session.runOrThrow(spec).lines.size());
}
BENCHMARK(BM_FullNanoBenchRun);

void
BM_SessionSetupPooled(benchmark::State &state)
{
    // Cost of Engine::session() once the machine is pooled -- the
    // amortization the Engine API exists for (vs BM_SessionSetupCold).
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    engine.session(opt); // warm the pool
    engine.resetStats();
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.session(opt).runner().mode());
    // Must be exactly 0: a warm pool never constructs (checked by
    // tools/check_bench.py).
    state.counters["machines_constructed"] =
        static_cast<double>(engine.machinesConstructed());
}
BENCHMARK(BM_SessionSetupPooled);

void
BM_SessionSetupCold(benchmark::State &state)
{
    // Full machine + runner construction per session: what every
    // benchmark paid under the one-shot facade.
    setQuiet(true);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Engine engine;
        SessionOptions opt;
        opt.mode = core::Mode::Kernel;
        opt.seed = seed++; // defeat pooling: fresh machine each time
        benchmark::DoNotOptimize(engine.session(opt).runner().mode());
    }
}
BENCHMARK(BM_SessionSetupCold);

} // namespace

BENCHMARK_MAIN();
