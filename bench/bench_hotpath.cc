/**
 * @file
 * Hot-path microbenchmarks of the decode/execute split: simulated-
 * instruction throughput and per-measurement setup cost across the
 * three generations of the hot path --
 *
 *  - legacy: re-materialize the unrolled measurement code and decode
 *    every instruction on every measurement (pre-predecode);
 *  - switch dispatch: the predecoded Program through the reference
 *    executor (Machine::executeReference): per-entry DecodedInsn reads,
 *    a switch on the opcode's class, immediate PMU accounting;
 *  - threaded dispatch: the predecoded Program through the threaded
 *    computed-goto SoA executor with batched PMU accounting
 *    (Machine::execute, the production path).
 *
 * Both executors run the same semantics bodies, prologue,
 * epilogue and scheduler primitives (sim/semantics.hh), so the
 * dispatch ratio measures only what the threaded executor adds: the
 * SoA image, computed-goto dispatch and batched counting.
 *
 * check_bench.py enforces two ratios from these numbers:
 * predecode_vs_legacy (BM_HotpathPredecoded / BM_HotpathLegacy, the
 * end-to-end win over the pre-predecode path) and
 * dispatch_vs_predecode (BM_HotpathPredecoded /
 * BM_HotpathSwitchDispatch, the threaded executor's >= 1.5x win over
 * switch dispatch on the same predecoded program).
 */

#include <benchmark/benchmark.h>

#include "core/codegen.hh"
#include "core/engine.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace
{

using namespace nb;

/** The measurement shape both paths run: a noMem readout around an
 *  unrolled ALU body -- no loop, so every dynamic instruction is a
 *  static instruction and the legacy path pays decode per dynamic
 *  instruction, exactly what the old executor did. */
core::GenParams
hotpathParams()
{
    core::GenParams p;
    p.body = x86::assemble("add RAX, RAX; imul RBX, RBX");
    p.localUnrollCount = 200;
    p.noMem = true;
    p.readouts = {{core::ReadoutItem::Kind::FixedPmc, 0, "Instructions"},
                  {core::ReadoutItem::Kind::FixedPmc, 1, "Core cycles"}};
    return p;
}

sim::Machine
hotpathMachine()
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    machine.setPrivilege(sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);
    return machine;
}

void
BM_HotpathLegacy(benchmark::State &state)
{
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        // What Runner::executeOnce did per measurement: materialize
        // unroll x body, then decode every instruction on the way in.
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto code = core::generateMeasurementCode(params);
        auto stats =
            machine.execute(sim::Program::decode(machine.uarch(), code));
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathLegacy);

void
BM_HotpathSwitchDispatch(benchmark::State &state)
{
    // The predecoded program through the switch-based reference
    // executor, the parity baseline. The dispatch_vs_predecode gate
    // measures the threaded executor against this.
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.executeReference(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathSwitchDispatch);

void
BM_HotpathPredecoded(benchmark::State &state)
{
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    // Built once (per round/unroll version in the Runner), reused by
    // every measurement.
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathPredecoded);

void
BM_HotpathBudget(benchmark::State &state)
{
    // BM_HotpathPredecoded with the cycle budget disarmed (Arg 0) vs
    // armed with a never-tripping budget (Arg 1). check_bench.py pins
    // the budget_overhead ratio (1 / 0) at <= 1.05x: the amortized
    // deadline check in the dispatch loop must stay in the noise.
    setQuiet(true);
    auto machine = hotpathMachine();
    auto params = hotpathParams();
    sim::Program prog =
        core::buildMeasurementProgram(params, machine.uarch());
    if (state.range(0) != 0)
        machine.setCycleBudget(1'000'000'000'000);
    std::uint64_t dynamic = 0;
    for (auto _ : state) {
        machine.pmu().beginEpoch(); // as the Runner does per run
        auto stats = machine.execute(prog);
        dynamic += stats.instructions;
        benchmark::DoNotOptimize(stats.endCycle);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(dynamic));
}
BENCHMARK(BM_HotpathBudget)->Arg(0)->Arg(1);

void
BM_MeasurementSetupLegacy(benchmark::State &state)
{
    // Per-measurement setup alone: materializing the unrolled vector
    // (one heap-allocated operand list per copied instruction).
    setQuiet(true);
    auto params = hotpathParams();
    for (auto _ : state) {
        auto code = core::generateMeasurementCode(params);
        benchmark::DoNotOptimize(code.size());
    }
}
BENCHMARK(BM_MeasurementSetupLegacy);

void
BM_MeasurementSetupPredecoded(benchmark::State &state)
{
    // The build the program cache pays once per (round, unroll
    // version): O(|body|), independent of the unroll factor.
    setQuiet(true);
    auto params = hotpathParams();
    const auto &ua = uarch::getMicroArch("Skylake");
    for (auto _ : state) {
        sim::Program prog = core::buildMeasurementProgram(params, ua);
        benchmark::DoNotOptimize(prog.virtualSize());
    }
}
BENCHMARK(BM_MeasurementSetupPredecoded);

void
BM_RunnerRepeatedSpec(benchmark::State &state)
{
    // End-to-end Session::run of one spec, program cache and assembly
    // memo hot: what a campaign pays for a repeated (or re-measured)
    // spec after this PR.
    setQuiet(true);
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);
    core::BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX; imul RBX, RBX";
    spec.unrollCount = 100;
    spec.nMeasurements = 10;
    spec.warmUpCount = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            session.runOrThrow(spec).lines.size());
    }
}
BENCHMARK(BM_RunnerRepeatedSpec);

} // namespace

BENCHMARK_MAIN();
